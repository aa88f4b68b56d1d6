package repository

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"schemr/internal/model"
	"schemr/internal/tenant"
)

// The decode stage shared by WAL replay, snapshot load and InstallState:
// GOMAXPROCS workers do each record's state-independent work (decode,
// validation, fingerprint) while the caller's apply function installs the
// records strictly in frame order, so recovered state is byte-identical to
// a sequential replay. Callers differ only in what a bad frame means: the
// WAL is cut back to it, a snapshot or install fails outright.

// decoded is one frame after the decode stage.
type decoded struct {
	payload   []byte // raw frame payload; released once decoded
	off       int64  // stream offset of the frame
	rec       walRecord
	id, print string // opPut: the entry schema's ID and dedupe key
	err       error
}

// decode unmarshals the payload, whose text is the same bytes as a
// string — a put through pd unless it declines, anything else through
// json.Unmarshal. A put's entry must hold a valid schema: it is decoded
// to a graph for validation, the dedupe key and the entry's header, and
// then dropped — the entry keeps the schema's bytes.
func (d *decoded) decode(pd *putDecoder, text string) {
	var err error
	var s *model.Schema
	if pd.decode(d.payload, text, &d.rec) {
		s = pd.graph
	} else {
		d.rec = walRecord{}
		err = json.Unmarshal(d.payload, &d.rec)
		if e := d.rec.Entry; err == nil && d.rec.Op == opPut && e != nil && len(e.Schema) > 0 {
			s, err = DecodeSchema(e.Schema)
		}
	}
	d.payload = nil
	switch e := d.rec.Entry; {
	case err != nil:
		d.err = fmt.Errorf("repository: wal record: %w", err)
	case d.rec.Op != opPut:
	case e == nil || s == nil:
		d.err = fmt.Errorf("repository: wal put record without entry")
	default:
		if err := s.Validate(); err != nil {
			d.err = fmt.Errorf("repository: wal put record: %w", err)
			return
		}
		// One copy holds the strings the entry keeps of a transient graph.
		kept := strings.Join([]string{s.ID, s.Name, s.Description}, "")
		d.id = kept[:len(s.ID)]
		d.print = printKey(tenant.Owner(d.id), s.Fingerprint())
		e.head = headerOf(s, e.Seq)
		e.head.Name, e.head.Description = kept[len(s.ID):len(s.ID)+len(s.Name)], kept[len(s.ID)+len(s.Name):]
	}
}

// replayBatch is how many frames travel through the decode stage together.
const replayBatch = 128

// frameBatch is one unit of decode work. A replay recycles a fixed set of
// them, which bounds how much of a stream is in memory at once. Its puts'
// transient graphs share one string copy of buf.
type frameBatch struct {
	recs    []decoded
	buf     []byte // the payloads of recs, back to back
	readErr error  // the frame after recs could not be read
	errOff  int64
	done    chan struct{} // closed once every rec is decoded
}

// replay reads every frame from fr, decodes them in parallel and calls
// apply on each in frame order. It stops at the first frame that cannot
// be read or decoded, or that apply rejects, and returns that frame's
// offset with the error; after a clean end it returns the stream length
// and nil.
func replay(fr *frameReader, apply func(*decoded) error) (int64, error) {
	workers := runtime.GOMAXPROCS(0)
	window := 3 * workers // batches in flight; no channel below ever fills
	work := make(chan *frameBatch, window)
	ordered := make(chan *frameBatch, window)
	free := make(chan *frameBatch, window)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			var pd putDecoder
			for b := range work {
				text := string(b.buf)
				for i := range b.recs {
					n := len(b.recs[i].payload)
					b.recs[i].decode(&pd, text[:n])
					text = text[n:]
				}
				close(b.done)
			}
		}()
	}
	go func() { // the reader: sole user of fr
		defer wg.Done()
		defer close(ordered)
		defer close(work)
		made, last := 0, 0 // batches made, payload bytes of the last one read
		for full := true; full; {
			var b *frameBatch
			if made < window {
				// Sized like the last batch, a new one seldom regrows.
				made++
				b = &frameBatch{recs: make([]decoded, 0, replayBatch), buf: make([]byte, 0, last+last/8)}
			} else {
				select {
				case b = <-free:
				case <-stop:
					return
				}
			}
			b.recs, b.buf, b.done = b.recs[:0], b.buf[:0], make(chan struct{})
			for len(b.recs) < replayBatch {
				off := fr.off
				var p []byte
				var err error
				if b.buf, p, err = fr.next(b.buf); err != nil {
					if err != io.EOF {
						b.readErr, b.errOff = err, off
					}
					break
				}
				b.recs = append(b.recs, decoded{payload: p, off: off})
			}
			work <- b
			ordered <- b
			full, last = len(b.recs) == replayBatch, len(b.buf)
		}
	}()

	end, err := fr.size, error(nil)
apply:
	for b := range ordered {
		<-b.done
		for i := range b.recs {
			d := &b.recs[i]
			if d.err == nil {
				d.err = apply(d)
			}
			if d.err != nil {
				end, err = d.off, d.err
				break apply
			}
		}
		if b.readErr != nil {
			end, err = b.errOff, b.readErr
			break
		}
		free <- b
	}
	close(stop)
	wg.Wait()
	return end, err
}
