package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"gdbm/internal/model"
)

func sampleRows() [][]model.Value {
	return [][]model.Value{
		{model.Int(1), model.Str("a"), model.Bool(true)},
		{model.Int(-42), model.Str(""), model.Null()},
		{model.Float(3.5), model.Str("päröt\x00bytes"), model.Bool(false)},
	}
}

// TestRoundTrip frames a full response and reassembles it byte-exactly.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cols := []string{"id", "name", "ok"}
	if err := w.Header(cols); err != nil {
		t.Fatal(err)
	}
	rows := sampleRows()
	if err := w.Chunk(rows[:2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Chunk(rows[2:]); err != nil {
		t.Fatal(err)
	}
	if err := w.End(len(rows), 1500*time.Microsecond); err != nil {
		t.Fatal(err)
	}

	res, err := Collect(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Cols, cols) {
		t.Errorf("cols: %v, want %v", res.Cols, cols)
	}
	if len(res.Rows) != len(rows) {
		t.Fatalf("rows: %d, want %d", len(res.Rows), len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			if !res.Rows[i][j].Equal(rows[i][j]) || res.Rows[i][j].Kind() != rows[i][j].Kind() {
				t.Errorf("row %d col %d: %v (%v), want %v (%v)",
					i, j, res.Rows[i][j], res.Rows[i][j].Kind(), rows[i][j], rows[i][j].Kind())
			}
		}
	}
	if res.End.Rows != 3 || res.End.Elapsed != 1500*time.Microsecond {
		t.Errorf("end: %+v", res.End)
	}
}

// TestAppendRowLayout pins AppendRow to the Chunk row layout spelled out
// value by value — count, then each MarshalBinary encoding behind its
// uvarint length — on values whose lengths need one, two and three
// varint bytes, appended after a prefix it must keep; and holds a Chunk of
// such rows to DecodeChunk.
func TestAppendRowLayout(t *testing.T) {
	var rows [][]model.Value
	for _, n := range []int{0, 126, 127, 128, 300, 20000} {
		rows = append(rows, []model.Value{model.Int(int64(n)), model.Str(strings.Repeat("x", n)), model.Null()})
	}
	rows = append(rows, []model.Value{}, sampleRows()[2])
	for _, row := range rows {
		want := binary.AppendUvarint([]byte("pre"), uint64(len(row)))
		for _, v := range row {
			enc, err := v.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			want = append(binary.AppendUvarint(want, uint64(len(enc))), enc...)
		}
		got, err := AppendRow([]byte("pre"), row)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendRow(%d values) = %x\nwant %x", len(row), got, want)
		}
	}

	var buf bytes.Buffer
	if err := NewWriter(&buf).Chunk(rows); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(&buf)
	f, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatalf("Chunk of long values did not round-trip:\n got %v\nwant %v", back, rows)
	}
}

// TestEmptyResult: zero rows still need header and end.
func TestEmptyResult(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Header(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.End(0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := Collect(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 0 || len(res.Rows) != 0 {
		t.Fatalf("%+v", res)
	}
}

// TestErrorFrame: a mid-stream Error frame surfaces as StatusError with the
// partial rows discarded.
func TestErrorFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Header([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Chunk([][]model.Value{{model.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Error(504, "query deadline exceeded"); err != nil {
		t.Fatal(err)
	}
	_, err := Collect(&buf)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.Status != 504 || se.Msg != "query deadline exceeded" {
		t.Fatalf("%+v", se)
	}
}

// TestTruncationIsNeverAShortResult: cutting the stream at every byte
// boundary must yield an error, never a silently short result.
func TestTruncationIsNeverAShortResult(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Header([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Chunk([][]model.Value{{model.Int(7)}, {model.Str("s")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.End(2, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		if _, err := Collect(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d was accepted as a valid result", cut, len(whole))
		}
	}
	if _, err := Collect(bytes.NewReader(whole)); err != nil {
		t.Fatalf("whole stream: %v", err)
	}
}

// TestBadMagicAndVersion rejects foreign streams before any allocation.
func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewReader(strings.NewReader("HTTP/1.1 200 OK")).Next(); err == nil {
		t.Error("bad magic accepted")
	}
	bad := append([]byte(Magic), 99)
	if _, err := NewReader(bytes.NewReader(bad)).Next(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}
}

// TestOversizedFrameRejected: a hostile length prefix must not allocate.
func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(Version)
	buf.WriteByte(byte(FrameChunk))
	buf.Write(binary.AppendUvarint(nil, MaxFrame+1))
	if _, err := NewReader(&buf).Next(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame: %v", err)
	}
}

// TestRequestFrame round-trips a framed request body.
func TestRequestFrame(t *testing.T) {
	var buf bytes.Buffer
	body := []byte(`{"stmt":"SELECT ORDER","engine":"gstore"}`)
	if err := NewWriter(&buf).Request(body); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameRequest || !bytes.Equal(f.Payload, body) {
		t.Fatalf("frame %v payload %q", f.Type, f.Payload)
	}
}

// encode frames a stream from writer steps; writing to a bytes.Buffer
// fails only on an unencodable value, which no caller passes.
func encode(parts ...func(w *Writer) error) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, p := range parts {
		if err := p(w); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func header(cols ...string) func(*Writer) error {
	return func(w *Writer) error { return w.Header(cols) }
}

func chunk(rows ...[]model.Value) func(*Writer) error {
	return func(w *Writer) error { return w.Chunk(rows) }
}

func end(rows int) func(*Writer) error {
	return func(w *Writer) error { return w.End(rows, time.Millisecond) }
}

// violations are complete-looking streams Collect must refuse.
func violations() map[string][]byte {
	one := []model.Value{model.Int(1)}
	return map[string][]byte{
		"chunk before header": encode(chunk(one)),
		"duplicate header":    encode(header("a"), header("b")),
		"request in response": encode(func(w *Writer) error { return w.Request([]byte("x")) }),
		"chunk after end":     encode(header("x"), end(0), chunk(one)),
		"second end":          encode(header("x"), chunk(one), end(1), end(1)),
		"lost chunk":          encode(header("x"), chunk(one), end(2)),
		"end undercounts":     encode(header("x"), chunk(one, one), end(1)),
	}
}

// TestCollectRejectsProtocolViolations: chunks before the header,
// duplicate headers, unknown frame types, any frame after End, and an End
// whose row count disagrees with the rows received are hard errors.
func TestCollectRejectsProtocolViolations(t *testing.T) {
	for name, stream := range violations() {
		if _, err := Collect(bytes.NewReader(stream)); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: err = %v, want protocol violation", name, err)
		}
	}
}

// FuzzWireDecode feeds arbitrary bytes to Collect: it must never panic,
// and a stream it accepts must end in an End frame that counts exactly
// the rows Collect returned.
func FuzzWireDecode(f *testing.F) {
	rows := sampleRows()
	f.Add(encode(header("id", "name", "ok"), chunk(rows[:2]...), chunk(rows[2:]...), end(len(rows))))
	f.Add(encode(header(), end(0)))
	f.Add(encode(header("x"), chunk(rows[0]), func(w *Writer) error { return w.Error(504, "deadline") }))
	f.Add([]byte(Magic))
	for _, stream := range violations() {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Collect(bytes.NewReader(data))
		if err != nil {
			return
		}
		rd := NewReader(bytes.NewReader(data))
		var last Frame
		for {
			fr, err := rd.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("Collect accepted a stream the reader rejects: %v", err)
			}
			last = fr
		}
		if last.Type != FrameEnd {
			t.Fatalf("accepted stream ends in a %s frame", last.Type)
		}
		e, err := DecodeEnd(last.Payload)
		if err != nil || e.Rows != len(res.Rows) {
			t.Fatalf("accepted stream's End = %+v, %v; Collect returned %d rows", e, err, len(res.Rows))
		}
	})
}

// TestDecodedRowsDoNotAlias: decoded rows share one backing array, yet an
// append to one row must not write into the next.
func TestDecodedRowsDoNotAlias(t *testing.T) {
	rows := sampleRows()
	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(len(rows)))
	for _, r := range rows {
		var err error
		if payload, err = AppendRow(payload, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("decoded %v, want %v", got, rows)
	}
	_ = append(got[0], model.Str("appended"))
	if !reflect.DeepEqual(got[1], rows[1]) {
		t.Fatalf("appending to row 0 changed row 1: %v, want %v", got[1], rows[1])
	}
}
