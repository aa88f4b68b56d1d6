package repository

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"
	"unicode/utf8"

	"schemr/internal/model"
)

// Put records are nearly every frame a boot decodes, and encoding/json
// spends most of recovery reflecting over them. putDecoder reads exactly
// what json.Marshal writes for a put walRecord: keys spelled as in the
// struct tags and in declaration order (so none repeats), strings without
// escapes, integers without fraction or exponent, no whitespace but a
// trailing newline. Anything else — another op, an unknown, repeated,
// reordered or differently-cased key, null, an escape, invalid UTF-8, a
// non-integer or out-of-range number, trailing bytes — declines, and the
// caller decodes the frame with json.Unmarshal, which stays the oracle:
// whatever putDecoder accepts, json.Unmarshal decodes to an equal record
// (FuzzDecodePut).
//
// It also allocates less: each list is one exact-size allocation (plus
// one for the pointer slice of entities and attributes) built in scratch
// reused from record to record, so a schema's entities and attributes
// are one block each rather than one object apiece.
//
// A put's entry keeps its schema as the bytes the record carries; the
// decoder parses them all the same — the boot's validation and
// fingerprint need the graph — and leaves the graph in its graph field.
// DecodeSchema reads stored schema bytes through the same methods.

// Object keys in the order json.Marshal writes them.
var (
	putKeys        = []string{"op", "lsn", "seq", "entry", "nextId", "tenant"}
	entryKeys      = []string{"schema", "tags", "comments", "usage", "addedAt", "seq"}
	schemaKeys     = []string{"id", "name", "description", "source", "format", "entities", "foreignKeys"}
	entityKeys     = []string{"name", "documentation", "attributes", "primaryKey", "parent"}
	attributeKeys  = []string{"name", "type", "nullable", "documentation"}
	foreignKeyKeys = []string{"name", "fromEntity", "fromColumns", "toEntity", "toColumns"}
	commentKeys    = []string{"author", "text", "rating", "at"}
	usageKeys      = []string{"impressions", "selections"}
)

// putDecoder decodes put records. Its scratch is reused from record to
// record, so each decode worker keeps one; the zero value is ready.
type putDecoder struct {
	b []byte
	i int

	// graph is the schema of the last put decode accepted.
	graph *model.Schema

	ents     []model.Entity
	attrs    []model.Attribute
	names    []string
	fks      []model.ForeignKey
	comments []Comment
}

// decode decodes p into rec, which must be zero, and reports whether it
// could. After a false return rec holds a partial decode.
func (d *putDecoder) decode(p []byte, rec *walRecord) bool {
	d.b, d.i, d.graph = p, 0, nil
	ok := d.object(putKeys, func(key string) bool {
		switch key {
		case "op":
			op, ok := d.raw()
			rec.Op = opPut
			return ok && string(op) == opPut
		case "lsn":
			return d.uint64(&rec.Lsn)
		case "seq":
			return d.uint64(&rec.Seq)
		case "entry":
			rec.Entry = new(entry)
			return d.entry(rec.Entry)
		case "nextId":
			return d.int(&rec.NextID)
		default: // "tenant"
			return d.string(&rec.Tenant)
		}
	})
	for ok && d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			ok = false
		}
	}
	d.b = nil
	return ok && rec.Op == opPut
}

// decodeSchema decodes the encoded schema p, or reports that it cannot,
// on the same terms as decode.
func (d *putDecoder) decodeSchema(p []byte) (*model.Schema, bool) {
	d.b, d.i = p, 0
	s := new(model.Schema)
	ok := d.schema(s) && d.i == len(d.b)
	d.b = nil
	return s, ok
}

// next consumes c if it is the next byte.
func (d *putDecoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads an object whose keys are a subsequence of keys, calling
// value with each key (as the keys entry, so nothing is allocated) to
// read what follows its colon.
func (d *putDecoder) object(keys []string, value func(key string) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		k, ok := d.raw()
		if !ok {
			return false
		}
		j := 0
		for j < len(keys) && keys[j] != string(k) {
			j++
		}
		if j == len(keys) || !d.next(':') || !value(keys[j]) {
			return false
		}
		keys = keys[j+1:]
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// list reads an array through elem, which decodes each element into
// scratch, and returns an exact-size copy — non-nil even when empty, as
// json.Unmarshal leaves an empty array. Lists of one element type never
// nest, so each type has one scratch slice.
func list[T any](d *putDecoder, scratch *[]T, elem func(*T) bool) ([]T, bool) {
	*scratch = (*scratch)[:0]
	if !d.next('[') {
		return nil, false
	}
	for !d.next(']') {
		if len(*scratch) > 0 && !d.next(',') {
			return nil, false
		}
		var zero T
		*scratch = append(*scratch, zero)
		if !elem(&(*scratch)[len(*scratch)-1]) {
			return nil, false
		}
	}
	return append(make([]T, 0, len(*scratch)), *scratch...), true
}

// pointers returns pointers to each element of vs.
func pointers[T any](vs []T) []*T {
	ps := make([]*T, len(vs))
	for i := range vs {
		ps[i] = &vs[i]
	}
	return ps
}

// raw reads a string and returns its bytes, which alias the payload. It
// declines escapes, control characters and invalid UTF-8: those are the
// strings json.Unmarshal would have to rewrite.
func (d *putDecoder) raw() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (d *putDecoder) string(dst *string) bool {
	s, ok := d.raw()
	*dst = string(s)
	return ok
}

func (d *putDecoder) strings(dst *[]string) bool {
	var ok bool
	*dst, ok = list(d, &d.names, d.string)
	return ok
}

// digits reads a JSON integer's magnitude: no leading zero, no fraction or
// exponent after it, at most math.MaxUint64.
func (d *putDecoder) digits() (uint64, bool) {
	start := d.i
	var n uint64
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		c := uint64(d.b[d.i] - '0')
		if n > (math.MaxUint64-c)/10 {
			return 0, false
		}
		n = n*10 + c
		d.i++
	}
	switch {
	case d.i == start, d.i-start > 1 && d.b[start] == '0':
		return 0, false
	case d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E'):
		return 0, false
	}
	return n, true
}

func (d *putDecoder) uint64(dst *uint64) bool {
	n, ok := d.digits()
	*dst = n
	return ok
}

func (d *putDecoder) int(dst *int) bool {
	neg := d.next('-')
	n, ok := d.digits()
	switch {
	case !ok:
		return false
	case neg && n <= math.MaxInt+1:
		*dst = int(-n)
	case !neg && n <= math.MaxInt:
		*dst = int(n)
	default:
		return false
	}
	return true
}

func (d *putDecoder) bool(dst *bool) bool {
	for _, lit := range [...]string{"false", "true"} {
		if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
			d.i += len(lit)
			*dst = lit == "true"
			return true
		}
	}
	return false
}

// time hands the quoted string to time.Time's own UnmarshalJSON, as
// json.Unmarshal does.
func (d *putDecoder) time(dst *time.Time) bool {
	start := d.i
	_, ok := d.raw()
	return ok && dst.UnmarshalJSON(d.b[start:d.i]) == nil
}

func (d *putDecoder) entry(e *entry) bool {
	return d.object(entryKeys, func(key string) bool {
		switch key {
		case "schema":
			start := d.i
			d.graph = new(model.Schema)
			if !d.schema(d.graph) {
				return false
			}
			e.Schema = append(json.RawMessage(nil), d.b[start:d.i]...)
			return true
		case "tags":
			return d.strings(&e.Tags)
		case "comments":
			var ok bool
			e.Comments, ok = list(d, &d.comments, d.comment)
			return ok
		case "usage":
			return d.object(usageKeys, func(key string) bool {
				if key == "impressions" {
					return d.int(&e.Usage.Impressions)
				}
				return d.int(&e.Usage.Selections)
			})
		case "addedAt":
			return d.time(&e.AddedAt)
		default: // "seq"
			return d.uint64(&e.Seq)
		}
	})
}

func (d *putDecoder) comment(c *Comment) bool {
	return d.object(commentKeys, func(key string) bool {
		switch key {
		case "author":
			return d.string(&c.Author)
		case "text":
			return d.string(&c.Text)
		case "rating":
			return d.int(&c.Rating)
		default: // "at"
			return d.time(&c.At)
		}
	})
}

func (d *putDecoder) schema(s *model.Schema) bool {
	return d.object(schemaKeys, func(key string) bool {
		switch key {
		case "id":
			return d.string(&s.ID)
		case "name":
			return d.string(&s.Name)
		case "description":
			return d.string(&s.Description)
		case "source":
			return d.string(&s.Source)
		case "format":
			return d.string(&s.Format)
		case "entities":
			ents, ok := list(d, &d.ents, d.entity)
			s.Entities = pointers(ents)
			return ok
		default: // "foreignKeys"
			var ok bool
			s.ForeignKeys, ok = list(d, &d.fks, d.foreignKey)
			return ok
		}
	})
}

func (d *putDecoder) entity(e *model.Entity) bool {
	return d.object(entityKeys, func(key string) bool {
		switch key {
		case "name":
			return d.string(&e.Name)
		case "documentation":
			return d.string(&e.Documentation)
		case "attributes":
			attrs, ok := list(d, &d.attrs, d.attribute)
			e.Attributes = pointers(attrs)
			return ok
		case "primaryKey":
			return d.strings(&e.PrimaryKey)
		default: // "parent"
			return d.string(&e.Parent)
		}
	})
}

func (d *putDecoder) attribute(a *model.Attribute) bool {
	return d.object(attributeKeys, func(key string) bool {
		switch key {
		case "name":
			return d.string(&a.Name)
		case "type":
			return d.string(&a.Type)
		case "nullable":
			return d.bool(&a.Nullable)
		default: // "documentation"
			return d.string(&a.Documentation)
		}
	})
}

func (d *putDecoder) foreignKey(fk *model.ForeignKey) bool {
	return d.object(foreignKeyKeys, func(key string) bool {
		switch key {
		case "name":
			return d.string(&fk.Name)
		case "fromEntity":
			return d.string(&fk.FromEntity)
		case "fromColumns":
			return d.strings(&fk.FromColumns)
		case "toEntity":
			return d.string(&fk.ToEntity)
		default: // "toColumns"
			return d.strings(&fk.ToColumns)
		}
	})
}

// schemaDecoders recycles decoder scratch across DecodeSchema calls.
var schemaDecoders = sync.Pool{New: func() any { return new(putDecoder) }}

// DecodeSchema decodes a schema's stored bytes (see Stored) into a graph
// the caller owns: through the put decoder when it can, through
// json.Unmarshal otherwise. JSON null decodes to nil.
func DecodeSchema(b []byte) (*model.Schema, error) {
	pd := schemaDecoders.Get().(*putDecoder)
	s, ok := pd.decodeSchema(b)
	schemaDecoders.Put(pd)
	if ok {
		return s, nil
	}
	s = nil
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	return s, nil
}

// mustDecode decodes bytes the repository holds. They were decoded and
// validated before they were stored, so a failure is a bug.
func mustDecode(b []byte) *model.Schema {
	s, err := DecodeSchema(b)
	if err != nil || s == nil {
		panic(fmt.Sprintf("repository: stored schema does not decode: %v", err))
	}
	return s
}
