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
// A put's entry keeps its schema as the bytes the record carries, but the
// boot's validation and fingerprint need the graph. The decoder builds it
// without allocating: its lists live in scratch reset once per record, its
// strings are substrings of the payload's text. This transient graph is
// valid until the next decode; what outlives it must be copied, as the
// record's tenant, tags, comments and schema bytes are. DecodeSchema reads
// stored schema bytes in copying mode: the caller keeps that graph.

// putDecoder decodes put records. Its scratch is reused from record to
// record, so each decode worker keeps one; the zero value is ready.
type putDecoder struct {
	b    []byte
	i    int
	text string // b as a string while decode runs, "" in copying mode

	graph *model.Schema // the transient schema of the last put decoded, in root
	root  model.Schema

	// A record's lists of one element type follow each other in scratch,
	// so a transient graph's lists stay intact until the next record.
	ents     []model.Entity
	entPtrs  []*model.Entity
	attrs    []model.Attribute
	attrPtrs []*model.Attribute
	names    []string
	fks      []model.ForeignKey
	comments []Comment
}

// reset starts a record whose bytes are b and text, with empty scratch.
func (d *putDecoder) reset(b []byte, text string) {
	d.b, d.i, d.text, d.graph = b, 0, text, nil
	d.ents, d.entPtrs, d.attrs, d.attrPtrs = d.ents[:0], d.entPtrs[:0], d.attrs[:0], d.attrPtrs[:0]
	d.names, d.fks, d.comments = d.names[:0], d.fks[:0], d.comments[:0]
}

// decode decodes p, whose text is the same bytes as a string, into rec,
// which must be zero, and reports whether it could. After a false return
// rec holds a partial decode.
func (d *putDecoder) decode(p []byte, text string, rec *walRecord) bool {
	d.reset(p, text)
	n := 0
	ok := d.next('{') && d.field("op", &n) && d.literal(`"`+opPut+`"`) &&
		(!d.field("lsn", &n) || d.uint64(&rec.Lsn)) &&
		(!d.field("seq", &n) || d.uint64(&rec.Seq)) &&
		(!d.field("entry", &n) || d.entry(rec)) &&
		(!d.field("nextId", &n) || d.int(&rec.NextID)) &&
		(!d.field("tenant", &n) || d.keep(&rec.Tenant)) &&
		d.next('}')
	for ok && d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			ok = false
		}
	}
	d.b, d.text = nil, ""
	rec.Op = opPut
	return ok
}

// decodeSchema decodes the encoded schema p in copying mode, or reports
// that it cannot, on the same terms as decode.
func (d *putDecoder) decodeSchema(p []byte) (*model.Schema, bool) {
	d.reset(p, "")
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

// field reads the next key of an object if it is k: a comma unless it is
// the first (n counts those read), then k quoted and its colon. Callers
// try an object's keys in the order json.Marshal writes them, each once,
// then expect the closing brace, so an unknown, repeated, reordered or
// differently-cased key is left unread and the object declines.
func (d *putDecoder) field(k string, n *int) bool {
	b := d.b[d.i:]
	if *n > 0 {
		if len(b) == 0 || b[0] != ',' {
			return false
		}
		b = b[1:]
	}
	if len(b) < len(k)+3 || b[0] != '"' || string(b[1:len(k)+1]) != k || b[len(k)+1] != '"' || b[len(k)+2] != ':' {
		return false
	}
	d.i, *n = len(d.b)-len(b)+len(k)+3, *n+1
	return true
}

// literal consumes lit if it comes next.
func (d *putDecoder) literal(lit string) bool {
	if len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// list reads an array through elem, which decodes each element in place
// at the end of scratch. Lists of one element type never nest, so each
// type has one scratch slice. It returns the elements as taken returns
// them.
func list[T any](d *putDecoder, scratch *[]T, elem func(*T) bool) ([]T, bool) {
	start := len(*scratch)
	if !d.next('[') {
		return nil, false
	}
	for !d.next(']') {
		if len(*scratch) > start && !d.next(',') {
			return nil, false
		}
		var zero T
		*scratch = append(*scratch, zero)
		if !elem(&(*scratch)[len(*scratch)-1]) {
			return nil, false
		}
	}
	return taken(d, scratch, start), true
}

// taken returns the elements of scratch from start: in place while decode
// runs; in copying mode a copy, and scratch is cut back.
func taken[T any](d *putDecoder, scratch *[]T, start int) []T {
	vs := (*scratch)[start:len(*scratch):len(*scratch)]
	if d.text != "" {
		return vs
	}
	*scratch = (*scratch)[:start]
	return append([]T{}, vs...) // non-nil even when empty, as json.Unmarshal leaves []
}

// pointers returns pointers to each element of vs, built in scratch.
func pointers[T any](d *putDecoder, scratch *[]*T, vs []T) []*T {
	start := len(*scratch)
	for i := range vs {
		*scratch = append(*scratch, &vs[i])
	}
	return taken(d, scratch, start)
}

// raw reads a string and returns its bytes, which alias the payload. It
// declines escapes, control characters and invalid UTF-8: those are the
// strings json.Unmarshal would have to rewrite.
func (d *putDecoder) raw() ([]byte, bool) {
	b, i := d.b, d.i
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	start, ascii := i+1, true
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i], ascii || utf8.Valid(b[start:i])
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// string reads a string of the graph: a substring of text while decode
// runs, a copy in copying mode.
func (d *putDecoder) string(dst *string) bool {
	s, ok := d.raw()
	if ok && d.text != "" {
		*dst = d.text[d.i-1-len(s) : d.i-1] // s, before the closing quote
	} else {
		*dst = string(s)
	}
	return ok
}

// keep reads a string the record holds: always a copy.
func (d *putDecoder) keep(dst *string) bool {
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
	*dst = d.literal("true")
	return *dst || d.literal("false")
}

// time hands the quoted string to time.Time's own UnmarshalJSON, as
// json.Unmarshal does.
func (d *putDecoder) time(dst *time.Time) bool {
	start := d.i
	_, ok := d.raw()
	return ok && dst.UnmarshalJSON(d.b[start:d.i]) == nil
}

// entry reads a put's entry; its schema becomes d.graph.
func (d *putDecoder) entry(rec *walRecord) bool {
	e, n := new(entry), 0
	rec.Entry = e
	return d.next('{') &&
		(!d.field("schema", &n) || d.entrySchema(e)) &&
		(!d.field("tags", &n) || d.keepStrings(&e.Tags)) &&
		(!d.field("comments", &n) || d.keepComments(&e.Comments)) &&
		(!d.field("usage", &n) || d.usage(&e.Usage)) &&
		(!d.field("addedAt", &n) || d.time(&e.AddedAt)) &&
		(!d.field("seq", &n) || d.uint64(&e.Seq)) &&
		d.next('}')
}

func (d *putDecoder) entrySchema(e *entry) bool {
	start := d.i
	d.root = model.Schema{}
	d.graph = &d.root
	if !d.schema(d.graph) {
		return false
	}
	e.Schema = append(json.RawMessage(nil), d.b[start:d.i]...)
	return true
}

func (d *putDecoder) keepStrings(dst *[]string) bool {
	tags, ok := list(d, &d.names, d.keep)
	*dst = append([]string{}, tags...)
	return ok
}

func (d *putDecoder) keepComments(dst *[]Comment) bool {
	comments, ok := list(d, &d.comments, d.comment)
	*dst = append([]Comment{}, comments...)
	return ok
}

func (d *putDecoder) usage(u *Usage) bool {
	n := 0
	return d.next('{') &&
		(!d.field("selections", &n) || d.int(&u.Selections)) &&
		d.next('}')
}

func (d *putDecoder) comment(c *Comment) bool {
	n := 0
	return d.next('{') &&
		(!d.field("author", &n) || d.keep(&c.Author)) &&
		(!d.field("text", &n) || d.keep(&c.Text)) &&
		(!d.field("rating", &n) || d.int(&c.Rating)) &&
		(!d.field("at", &n) || d.time(&c.At)) &&
		d.next('}')
}

func (d *putDecoder) schema(s *model.Schema) bool {
	n := 0
	return d.next('{') &&
		(!d.field("id", &n) || d.string(&s.ID)) &&
		(!d.field("name", &n) || d.string(&s.Name)) &&
		(!d.field("description", &n) || d.string(&s.Description)) &&
		(!d.field("source", &n) || d.string(&s.Source)) &&
		(!d.field("format", &n) || d.string(&s.Format)) &&
		(!d.field("entities", &n) || d.entities(&s.Entities)) &&
		(!d.field("foreignKeys", &n) || d.foreignKeys(&s.ForeignKeys)) &&
		d.next('}')
}

func (d *putDecoder) entities(dst *[]*model.Entity) bool {
	ents, ok := list(d, &d.ents, d.entity)
	*dst = pointers(d, &d.entPtrs, ents)
	return ok
}

func (d *putDecoder) entity(e *model.Entity) bool {
	n := 0
	return d.next('{') &&
		(!d.field("name", &n) || d.string(&e.Name)) &&
		(!d.field("documentation", &n) || d.string(&e.Documentation)) &&
		(!d.field("attributes", &n) || d.attributes(&e.Attributes)) &&
		(!d.field("primaryKey", &n) || d.strings(&e.PrimaryKey)) &&
		(!d.field("parent", &n) || d.string(&e.Parent)) &&
		d.next('}')
}

func (d *putDecoder) attributes(dst *[]*model.Attribute) bool {
	attrs, ok := list(d, &d.attrs, d.attribute)
	*dst = pointers(d, &d.attrPtrs, attrs)
	return ok
}

func (d *putDecoder) attribute(a *model.Attribute) bool {
	n := 0
	return d.next('{') &&
		(!d.field("name", &n) || d.string(&a.Name)) &&
		(!d.field("type", &n) || d.string(&a.Type)) &&
		(!d.field("nullable", &n) || d.bool(&a.Nullable)) &&
		(!d.field("documentation", &n) || d.string(&a.Documentation)) &&
		d.next('}')
}

func (d *putDecoder) foreignKeys(dst *[]model.ForeignKey) bool {
	var ok bool
	*dst, ok = list(d, &d.fks, d.foreignKey)
	return ok
}

func (d *putDecoder) foreignKey(fk *model.ForeignKey) bool {
	n := 0
	return d.next('{') &&
		(!d.field("name", &n) || d.string(&fk.Name)) &&
		(!d.field("fromEntity", &n) || d.string(&fk.FromEntity)) &&
		(!d.field("fromColumns", &n) || d.strings(&fk.FromColumns)) &&
		(!d.field("toEntity", &n) || d.string(&fk.ToEntity)) &&
		(!d.field("toColumns", &n) || d.strings(&fk.ToColumns)) &&
		d.next('}')
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
