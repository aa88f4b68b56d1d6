package repository

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"schemr/internal/fsutil"
)

// The write-ahead log is a flat file of framed JSON lines. Each frame is
//
//	[4-byte little-endian payload length][4-byte IEEE CRC-32 of payload][payload]
//
// where the payload is one JSON-encoded walRecord (newline-terminated, so
// the file remains greppable). Append fsyncs before returning: once Append
// has returned nil the record survives kill -9. Recovery reads frames
// until the first one that does not check out — a short header, a short
// payload, an absurd length or a CRC mismatch — and truncates the file
// there. A torn tail (the crash interrupted an append mid-write) is
// therefore dropped silently: by construction it was never acknowledged.
// Snapshots are streams of the same frames (see snapshot.go).
const (
	walHeaderSize = 8
	// walMaxRecord caps a frame's declared payload length. A length beyond
	// it cannot come from Append (single schemas are far smaller) and is
	// treated as corruption rather than an allocation request.
	walMaxRecord = 64 << 20
)

// writeFrame writes one frame: header, then payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameReader is the one reader of framed streams — WAL, snapshot and
// replication state alike. It reads sequentially through a buffer and
// knows how many bytes the stream holds, so a corrupt length is rejected
// before anything is allocated for it.
type frameReader struct {
	r    *bufio.Reader
	off  int64 // stream offset of the next frame
	size int64 // stream length
}

// next appends the next frame's payload to buf and returns both the grown
// buffer and the payload. io.EOF means the stream ended exactly at a frame
// boundary; any other error means the frame at off is torn or corrupt,
// and off is left pointing at it.
func (fr *frameReader) next(buf []byte) ([]byte, []byte, error) {
	left := fr.size - fr.off
	if left == 0 {
		return buf, nil, io.EOF
	}
	var hdr [walHeaderSize]byte
	if left < walHeaderSize {
		return buf, nil, fmt.Errorf("frame: short header at %d", fr.off)
	}
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return buf, nil, fmt.Errorf("frame: short header at %d", fr.off)
	}
	length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if length == 0 || length > walMaxRecord || length > left-walHeaderSize {
		return buf, nil, fmt.Errorf("frame: implausible frame length %d at %d", length, fr.off)
	}
	buf = slices.Grow(buf, int(length))
	payload := buf[len(buf) : len(buf)+int(length)]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return buf, nil, fmt.Errorf("frame: short payload at %d", fr.off)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return buf, nil, fmt.Errorf("frame: crc mismatch at %d", fr.off)
	}
	fr.off += walHeaderSize + length
	return buf[:len(buf)+int(length)], payload, nil
}

// wal is the open write-ahead log. It is not itself concurrency-safe; the
// owning Repository serializes access under its write lock, which also
// guarantees WAL order equals apply order.
type wal struct {
	f    *os.File
	path string
	size int64 // current end offset, maintained by append
	met  *Metrics
}

// openWAL opens (creating if absent) the log at path, replays every intact
// frame through the decode stage into apply, truncates any torn tail
// (recording it in stats), and leaves the file positioned for appends. A
// frame that fails to decode, or that apply rejects, stops replay as if it
// were corrupt: the file is cut back so recovery always yields a clean
// prefix.
func openWAL(path string, apply func(*decoded) error, met *Metrics, stats *RecoveryStats) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repository: wal open: %w", err)
	}
	// The file may have just been created; make its directory entry
	// durable so a crash cannot lose the (empty) log out from under a
	// snapshotless repository.
	if err := fsutil.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("repository: wal open: sync dir: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("repository: wal open: %w", err)
	}

	end, rerr := replay(&frameReader{r: bufio.NewReaderSize(f, 64<<10), size: fi.Size()}, apply)
	if rerr != nil {
		// Torn or corrupt frame: cut the file back to the intact prefix
		// and stop. Anything beyond was never acknowledged (or is
		// unreadable, in which case the prefix is all we can honestly
		// recover).
		stats.TornTail = true
		stats.TruncatedAt = end
		if terr := f.Truncate(end); terr != nil {
			f.Close()
			return nil, fmt.Errorf("repository: wal truncate torn tail: %w", terr)
		}
		if serr := f.Sync(); serr != nil {
			f.Close()
			return nil, fmt.Errorf("repository: wal sync after truncate: %w", serr)
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("repository: wal seek: %w", err)
	}
	return &wal{f: f, path: path, size: end, met: met}, nil
}

// append frames payload, writes it at the end of the log and fsyncs. Only
// after the fsync returns is the record considered acknowledged. On a
// write error the file is truncated back so a partial frame cannot be
// mistaken for a record by a concurrent-era reader (recovery would discard
// it anyway).
func (w *wal) append(payload []byte) error {
	start := time.Now()
	err := writeFrame(w.f, payload)
	if err == nil {
		start = time.Now()
		err = w.f.Sync()
	}
	if err != nil {
		w.f.Truncate(w.size)
		w.f.Seek(w.size, io.SeekStart)
		return fmt.Errorf("repository: wal append: %w", err)
	}
	w.size += walHeaderSize + int64(len(payload))
	if w.met != nil {
		w.met.Appends.Inc()
		w.met.AppendBytes.Add(uint64(walHeaderSize + len(payload)))
		w.met.FsyncSeconds.ObserveDuration(time.Since(start))
		w.met.SizeBytes.Set(w.size)
	}
	return nil
}

// reset empties the log after its contents have been made durable
// elsewhere (a snapshot): truncate to zero, rewind, fsync.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("repository: wal reset: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("repository: wal reset: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("repository: wal reset: %w", err)
	}
	w.size = 0
	if w.met != nil {
		w.met.SizeBytes.Set(0)
	}
	return nil
}

func (w *wal) close() error {
	return w.f.Close()
}
