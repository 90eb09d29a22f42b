// Package wire is the length-prefixed binary framing protocol of the
// serving layer. A framed stream opens with a fixed magic and version, then
// carries self-delimiting frames:
//
//	stream  = "GDBW" version(1 byte) frame*
//	frame   = type(1 byte) length(uvarint) payload(length bytes)
//
// Frame types:
//
//	Request  client→server: a JSON query request, framed so one code path
//	         carries both directions.
//	Header   server→client: the result columns, sent exactly once before
//	         any rows.
//	Chunk    server→client: a batch of result rows, flushed as execution
//	         produces them.
//	Error    server→client: a mid-stream failure after the HTTP status is
//	         already committed; carries an HTTP-equivalent status code and
//	         message. A stream ending in Error has no End frame.
//	End      server→client: successful termination; carries the total row
//	         count and server-side elapsed time. A stream that stops
//	         without End or Error was truncated and must be treated as
//	         failed, never as a short result.
//
// Values ride each Chunk in the model layer's binary value encoding
// (model.Value.AppendBinary), length-prefixed per value, so the cost of a
// row is a few varints plus the payload bytes — no JSON in the hot path.
// AppendRow is the one row encoder: Writer.Chunk and the server's streamed
// chunks both frame its output.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"gdbm/internal/model"
)

// Magic opens every framed stream; Version is the only protocol version.
const (
	Magic   = "GDBW"
	Version = 1
)

// ContentType is the media type negotiated for framed streams: a request
// with this Content-Type carries a framed Request body, and a request whose
// Accept includes it asks for a framed response.
const ContentType = "application/x-gdbw"

// FrameType tags a frame.
type FrameType byte

const (
	FrameRequest FrameType = 1
	FrameHeader  FrameType = 2
	FrameChunk   FrameType = 3
	FrameError   FrameType = 4
	FrameEnd     FrameType = 5
)

// String names the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameRequest:
		return "request"
	case FrameHeader:
		return "header"
	case FrameChunk:
		return "chunk"
	case FrameError:
		return "error"
	case FrameEnd:
		return "end"
	}
	return fmt.Sprintf("frame(%d)", byte(t))
}

// MaxFrame bounds a declared payload length on the read side. A corrupt or
// hostile length prefix must not turn into an unbounded allocation; chunks
// the server writes are bounded by the chunk row budget, far below this.
const MaxFrame = 16 << 20

// ErrTruncated reports a stream that ended mid-frame or, via Collect,
// without a terminal End/Error frame.
var ErrTruncated = errors.New("wire: truncated stream")

// Writer emits a framed stream onto w. The magic and version are written
// lazily before the first frame. Writer does no buffering of its own: each
// frame lands on w whole, so the caller controls flush boundaries.
type Writer struct {
	w       io.Writer
	started bool
	buf     []byte                            // payload scratch
	hdr     [1 + 2*binary.MaxVarintLen64]byte // frame header scratch
}

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (w *Writer) start() error {
	if w.started {
		return nil
	}
	w.started = true
	_, err := w.w.Write(append([]byte(Magic), Version))
	return err
}

// frame writes one complete frame whose payload is lead then body. lead is
// at most a varint — a Chunk's row count, which precedes rows encoded
// ahead of time — and goes out in one write with the frame header, which
// is built in the Writer's own scratch.
func (w *Writer) frame(t FrameType, lead, body []byte) error {
	if err := w.start(); err != nil {
		return err
	}
	hdr := binary.AppendUvarint(append(w.hdr[:0], byte(t)), uint64(len(lead)+len(body)))
	if _, err := w.w.Write(append(hdr, lead...)); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := w.w.Write(body)
	return err
}

// Request frames a JSON request body.
func (w *Writer) Request(body []byte) error { return w.frame(FrameRequest, nil, body) }

// Header frames the result columns.
func (w *Writer) Header(cols []string) error {
	b := binary.AppendUvarint(w.buf[:0], uint64(len(cols)))
	for _, c := range cols {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
	}
	w.buf = b[:0]
	return w.frame(FrameHeader, nil, b)
}

// Chunk frames a batch of rows.
func (w *Writer) Chunk(rows [][]model.Value) error {
	b := w.buf[:0]
	for _, row := range rows {
		var err error
		if b, err = AppendRow(b, row); err != nil {
			return err
		}
	}
	w.buf = b[:0]
	return w.EncodedChunk(len(rows), b)
}

// EncodedChunk frames n rows that AppendRow encoded back to back into rows
// as one Chunk frame, the bytes Chunk writes for the same rows. A streaming
// caller encodes each row as it arrives and frames the batch once.
func (w *Writer) EncodedChunk(n int, rows []byte) error {
	var count [binary.MaxVarintLen64]byte
	return w.frame(FrameChunk, binary.AppendUvarint(count[:0], uint64(n)), rows)
}

// AppendRow appends one row of a Chunk payload to b: the value count, then
// each value's model.Value.AppendBinary encoding behind its length. On an
// error (a value of invalid kind) it returns b as it was.
func AppendRow(b []byte, row []model.Value) ([]byte, error) {
	start := len(b)
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, v := range row {
		at := len(b)
		b = append(b, 0) // the length, while it fits one varint byte
		var err error
		if b, err = v.AppendBinary(b); err != nil {
			return b[:start], err
		}
		n := len(b) - at - 1
		if n < 0x80 {
			b[at] = byte(n)
			continue
		}
		// A long value needs a wider length: widen it in place.
		var l [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(l[:], uint64(n))
		b = append(b, l[1:k]...)
		copy(b[at+k:], b[at+1:at+1+n])
		copy(b[at:], l[:k])
	}
	return b, nil
}

// Error frames a mid-stream failure with an HTTP-equivalent status code.
func (w *Writer) Error(status int, msg string) error {
	b := binary.AppendUvarint(w.buf[:0], uint64(status))
	b = append(b, msg...)
	w.buf = b[:0]
	return w.frame(FrameError, nil, b)
}

// End frames successful termination with the total row count and the
// server-side elapsed time.
func (w *Writer) End(rows int, elapsed time.Duration) error {
	b := binary.AppendUvarint(w.buf[:0], uint64(rows))
	b = binary.AppendUvarint(b, uint64(elapsed.Nanoseconds()))
	w.buf = b[:0]
	return w.frame(FrameEnd, nil, b)
}

// Frame is one decoded frame.
type Frame struct {
	Type    FrameType
	Payload []byte
}

// Reader decodes a framed stream from r, validating the magic and version
// before the first frame.
type Reader struct {
	r       *byteReader
	started bool
}

// byteReader adapts an io.Reader to io.ByteReader without buffering ahead
// (binary.ReadUvarint must not consume past the varint).
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, io.EOF
		}
		return 0, err
	}
	return b.one[0], nil
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: &byteReader{r: r}} }

func (r *Reader) start() error {
	if r.started {
		return nil
	}
	r.started = true
	var hdr [len(Magic) + 1]byte
	if _, err := io.ReadFull(r.r.r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return ErrTruncated
		}
		return err
	}
	if string(hdr[:len(Magic)]) != Magic {
		return fmt.Errorf("wire: bad magic %q", hdr[:len(Magic)])
	}
	if hdr[len(Magic)] != Version {
		return fmt.Errorf("wire: unsupported version %d", hdr[len(Magic)])
	}
	return nil
}

// Next reads one frame. io.EOF marks a clean end of input between frames;
// ErrTruncated an end inside one.
func (r *Reader) Next() (Frame, error) {
	if err := r.start(); err != nil {
		return Frame{}, err
	}
	t, err := r.r.ReadByte()
	if err != nil {
		return Frame{}, err // io.EOF between frames is the caller's signal
	}
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Frame{}, truncated(err)
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r.r.r, payload); err != nil {
		return Frame{}, truncated(err)
	}
	return Frame{Type: FrameType(t), Payload: payload}, nil
}

func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrTruncated
	}
	return err
}

// DecodeHeader decodes a Header frame payload.
func DecodeHeader(payload []byte) ([]string, error) {
	n, rest, err := uvarint(payload)
	if err != nil {
		return nil, err
	}
	cols := make([]string, 0, capHint(n, 1024))
	for i := uint64(0); i < n; i++ {
		var l uint64
		l, rest, err = uvarint(rest)
		if err != nil {
			return nil, err
		}
		if uint64(len(rest)) < l {
			return nil, ErrTruncated
		}
		cols = append(cols, string(rest[:l]))
		rest = rest[l:]
	}
	return cols, nil
}

// DecodeChunk decodes a Chunk frame payload. The rows share one backing
// array of values, and each row is a full slice expression over its part
// of it, so an append to one row reallocates instead of writing into the
// next.
func DecodeChunk(payload []byte) ([][]model.Value, error) {
	n, rest, err := uvarint(payload)
	if err != nil {
		return nil, err
	}
	rows := make([][]model.Value, 0, capHint(n, 4096))
	var vals []model.Value
	for i := uint64(0); i < n; i++ {
		var nv uint64
		nv, rest, err = uvarint(rest)
		if err != nil {
			return nil, err
		}
		if vals == nil {
			// The rows of a chunk are as wide as its first, and every
			// value takes at least its length byte.
			want := uint64(len(rest))
			if nv > 0 && n <= want/nv {
				want = n * nv
			}
			vals = make([]model.Value, 0, capHint(want, 1<<16))
		}
		start := len(vals)
		for j := uint64(0); j < nv; j++ {
			var l uint64
			l, rest, err = uvarint(rest)
			if err != nil {
				return nil, err
			}
			if uint64(len(rest)) < l {
				return nil, ErrTruncated
			}
			v, err := model.UnmarshalValue(rest[:l])
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			rest = rest[l:]
		}
		rows = append(rows, vals[start:])
	}
	// An append may have moved vals: point every row at the final array.
	off := 0
	for i, r := range rows {
		rows[i] = vals[off : off+len(r) : off+len(r)]
		off += len(r)
	}
	return rows, nil
}

// DecodeError decodes an Error frame payload.
func DecodeError(payload []byte) (status int, msg string, err error) {
	s, rest, err := uvarint(payload)
	if err != nil {
		return 0, "", err
	}
	return int(s), string(rest), nil
}

// End is a decoded End frame.
type End struct {
	Rows    int
	Elapsed time.Duration
}

// DecodeEnd decodes an End frame payload.
func DecodeEnd(payload []byte) (End, error) {
	rows, rest, err := uvarint(payload)
	if err != nil {
		return End{}, err
	}
	ns, _, err := uvarint(rest)
	if err != nil {
		return End{}, err
	}
	return End{Rows: int(rows), Elapsed: time.Duration(ns)}, nil
}

func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}

// capHint bounds a declared count before it becomes an allocation size.
func capHint(declared uint64, limit int) int {
	if declared < uint64(limit) {
		return int(declared)
	}
	return limit
}

// Result is a fully reassembled framed response.
type Result struct {
	Cols []string
	Rows [][]model.Value
	End  End
}

// Collect reassembles a complete framed response from r. A stream that
// terminates in an Error frame returns a *StatusError; one that ends
// without End or Error returns ErrTruncated — truncation is never silently
// a short result. End must be the last frame and must count exactly the
// rows reassembled before it, so a stream that lost a chunk, or carries
// frames after its End, is a protocol error.
func Collect(r io.Reader) (*Result, error) {
	rd := NewReader(r)
	res := &Result{}
	sawHeader, sawEnd := false, false
	for {
		f, err := rd.Next()
		if errors.Is(err, io.EOF) {
			if !sawEnd {
				return nil, ErrTruncated
			}
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		if sawEnd {
			return nil, fmt.Errorf("wire: %s frame after end", f.Type)
		}
		switch f.Type {
		case FrameHeader:
			if sawHeader {
				return nil, fmt.Errorf("wire: duplicate header frame")
			}
			sawHeader = true
			if res.Cols, err = DecodeHeader(f.Payload); err != nil {
				return nil, err
			}
		case FrameChunk:
			if !sawHeader {
				return nil, fmt.Errorf("wire: chunk before header")
			}
			rows, err := DecodeChunk(f.Payload)
			if err != nil {
				return nil, err
			}
			if res.Rows == nil {
				res.Rows = rows // most responses are one chunk: keep its slice
			} else {
				res.Rows = append(res.Rows, rows...)
			}
		case FrameError:
			status, msg, err := DecodeError(f.Payload)
			if err != nil {
				return nil, err
			}
			return nil, &StatusError{Status: status, Msg: msg}
		case FrameEnd:
			if !sawHeader {
				return nil, fmt.Errorf("wire: end before header")
			}
			if res.End, err = DecodeEnd(f.Payload); err != nil {
				return nil, err
			}
			if res.End.Rows != len(res.Rows) {
				return nil, fmt.Errorf("wire: end frame counts %d rows, stream carried %d", res.End.Rows, len(res.Rows))
			}
			sawEnd = true
		default:
			return nil, fmt.Errorf("wire: unexpected %s frame in response", f.Type)
		}
	}
}

// StatusError is a mid-stream Error frame surfaced as a Go error.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("wire: server error %d: %s", e.Status, e.Msg)
}
