package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"gdbm/internal/model"
	"gdbm/internal/query/plan"
	"gdbm/internal/server/wire"
)

// queryResponse is the buffered JSON shape of a query result, the
// reference the streamed encodings are held to.
type queryResponse struct {
	Cols      []string `json:"cols"`
	Rows      [][]any  `json:"rows"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// toWire renders a materialized result in the buffered JSON shape.
func toWire(res *plan.Result, elapsed time.Duration) queryResponse {
	out := queryResponse{
		Cols:      res.Cols,
		Rows:      make([][]any, len(res.Rows)),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if out.Cols == nil {
		out.Cols = []string{}
	}
	for i, row := range res.Rows {
		vals := make([]any, len(row))
		for j, v := range row {
			vals[j] = v.Native()
		}
		out.Rows[i] = vals
	}
	return out
}

// TestJSONStreamMatchesEncoderBytes pins the streamed JSON encoding to the
// buffered one byte for byte: concatenating per-element json.Marshal output
// with literal punctuation must reproduce exactly what json.Encoder emits
// for the whole queryResponse. Any drift (escaping, float formatting, field
// order, trailing newline) breaks every client that parsed the old shape.
func TestJSONStreamMatchesEncoderBytes(t *testing.T) {
	const elapsed = 1500 * time.Microsecond
	cases := []struct {
		name string
		cols []string
		rows [][]model.Value
	}{
		{"empty", nil, nil},
		{"cols-no-rows", []string{"a", "b"}, nil},
		{"one-int", []string{"n"}, [][]model.Value{{model.Int(1)}}},
		{"mixed-types", []string{"i", "f", "s", "b", "z"}, [][]model.Value{
			{model.Int(-42), model.Float(3.25), model.Str("plain"), model.Bool(true), model.Null()},
			{model.Int(1 << 40), model.Float(1e21), model.Str(""), model.Bool(false), model.Null()},
		}},
		{"escaping", []string{"s"}, [][]model.Value{
			{model.Str(`<script>&"quotes"\backslash`)},
			{model.Str("tab\tnewline\nunicodeé")},
		}},
		{"many-rows-cross-chunk", []string{"i"}, func() [][]model.Value {
			rows := make([][]model.Value, 7)
			for i := range rows {
				rows[i] = []model.Value{model.Int(int64(i))}
			}
			return rows
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			// chunk=2 so the cross-chunk case flushes mid-stream: flush
			// boundaries must never alter bytes.
			js := &jsonStream{w: rec, chunk: 2}
			if c.cols != nil || len(c.rows) > 0 {
				if err := js.Cols(c.cols); err != nil {
					t.Fatal(err)
				}
			}
			for _, row := range c.rows {
				if err := js.Row(row); err != nil {
					t.Fatal(err)
				}
			}
			if err := js.finish(elapsed); err != nil {
				t.Fatal(err)
			}

			var want bytes.Buffer
			res := &plan.Result{Cols: c.cols, Rows: c.rows}
			if err := json.NewEncoder(&want).Encode(toWire(res, elapsed)); err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.String(); got != want.String() {
				t.Fatalf("streamed bytes diverge from buffered encoder\n  streamed: %q\n  buffered: %q", got, want.String())
			}
		})
	}
}

// streamJSON renders rows through jsonStream with a small chunk, so rows
// cross chunk boundaries.
func streamJSON(cols []string, rows [][]model.Value, elapsed time.Duration) ([]byte, error) {
	rec := httptest.NewRecorder()
	js := &jsonStream{w: rec, chunk: 3}
	if err := js.Cols(cols); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := js.Row(row); err != nil {
			return nil, err
		}
	}
	if err := js.finish(elapsed); err != nil {
		return nil, err
	}
	return rec.Body.Bytes(), nil
}

// streamBinary renders rows through binStream at the given chunk size.
func streamBinary(cols []string, rows [][]model.Value, chunk int, elapsed time.Duration) ([]byte, error) {
	rec := httptest.NewRecorder()
	bs := &binStream{w: rec, bw: wire.NewWriter(rec), chunk: chunk}
	if err := bs.Cols(cols); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := bs.Row(row); err != nil {
			return nil, err
		}
	}
	if err := bs.finish(elapsed); err != nil {
		return nil, err
	}
	return rec.Body.Bytes(), nil
}

// fuzzRows decodes fuzz input into a result table: the first byte picks
// the row width (1 to 4), then each value is a kind byte and its payload.
// A short payload is zero-padded; a last partial row is padded with nulls.
func fuzzRows(data []byte) ([]string, [][]model.Value) {
	if len(data) == 0 {
		return []string{"a"}, nil
	}
	width := 1 + int(data[0]%4)
	data = data[1:]
	cols := make([]string, width)
	for i := range cols {
		cols[i] = string(rune('a' + i))
	}
	take := func(n int) []byte {
		var b [8]byte
		k := copy(b[:n], data)
		data = data[k:]
		return b[:n]
	}
	var vals []model.Value
	for len(data) > 0 {
		kind := data[0] % 5
		data = data[1:]
		switch kind {
		case 0:
			vals = append(vals, model.Null())
		case 1:
			vals = append(vals, model.Bool(take(1)[0]&1 == 1))
		case 2:
			vals = append(vals, model.Int(int64(binary.BigEndian.Uint64(take(8)))))
		case 3:
			vals = append(vals, model.Float(math.Float64frombits(binary.BigEndian.Uint64(take(8)))))
		case 4:
			n := int(take(1)[0] % 32)
			if n > len(data) {
				n = len(data)
			}
			vals = append(vals, model.Str(string(data[:n])))
			data = data[n:]
		}
	}
	var rows [][]model.Value
	for len(vals) > 0 {
		row := make([]model.Value, width)
		vals = vals[copy(row, vals):]
		rows = append(rows, row)
	}
	return cols, rows
}

// FuzzWireRoundTrip holds the two response encodings to each other: any
// rows framed by the binary stream (wire.Writer) and reassembled by
// wire.Collect come back value for value, the binary stream's bytes are
// Writer.Chunk framing of the rows at chunk sizes 1, 2 and 256, and the
// JSON stream renders the original and the reassembled rows to the same
// bytes as the buffered toWire reference. Non-finite floats have no JSON
// form: there the reference and the JSON stream must both fail.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 42})
	f.Add([]byte{3, 0, 1, 1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xd6, 3, 0x40, 0x0a, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 4, 5, 'h', 'e', 'l', 'l', 'o', 4, 6, '<', '&', '"', '\\', '\n', 0xc3, 4, 0})
	f.Add([]byte{0, 3, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{2, 1, 2, 3, 4, 5, 6, 7, 8}, 9))
	f.Fuzz(checkRoundTrip)
}

// checkRoundTrip is FuzzWireRoundTrip's property for one input.
func checkRoundTrip(t *testing.T, data []byte) {
	// Longer inputs add no new shapes, only rows; bounding them keeps each
	// run, and the fuzzer's minimization of what it finds, short.
	if len(data) > 256 {
		return
	}
	const elapsed = 1500 * time.Microsecond
	cols, rows := fuzzRows(data)

	body, err := streamBinary(cols, rows, 3, elapsed)
	if err != nil {
		t.Fatal(err)
	}
	// The streamed bytes are Writer.Chunk framing of the same rows in
	// batches of the chunk size, whatever that size: one row encoder.
	for _, size := range []int{1, 2, 256} {
		b, err := streamBinary(cols, rows, size, elapsed)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		ww := wire.NewWriter(&want)
		if err := ww.Header(cols); err != nil {
			t.Fatal(err)
		}
		for rest := rows; len(rest) > 0; {
			n := min(size, len(rest))
			if err := ww.Chunk(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := ww.End(len(rows), elapsed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want.Bytes()) {
			t.Fatalf("chunk size %d: binary stream diverges from Writer.Chunk framing\n  stream: %x\n  writer: %x", size, b, want.Bytes())
		}
	}
	got, err := wire.Collect(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if !slices.Equal(got.Cols, cols) || len(got.Rows) != len(rows) || got.End.Rows != len(rows) {
		t.Fatalf("round trip: cols %q rows %d (end %d), want %q rows %d", got.Cols, len(got.Rows), got.End.Rows, cols, len(rows))
	}
	for i, row := range rows {
		for j, v := range row {
			want, _ := v.MarshalBinary()
			have, _ := got.Rows[i][j].MarshalBinary()
			if !bytes.Equal(have, want) {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, got.Rows[i][j], v)
			}
		}
	}

	var ref bytes.Buffer
	refErr := json.NewEncoder(&ref).Encode(toWire(&plan.Result{Cols: cols, Rows: rows}, elapsed))
	for i, rs := range [][][]model.Value{rows, got.Rows} {
		name := [...]string{"original", "reassembled"}[i]
		b, err := streamJSON(cols, rs, elapsed)
		switch {
		case refErr != nil && err == nil:
			t.Fatalf("%s rows: reference encoding failed (%v), JSON stream did not", name, refErr)
		case refErr == nil && err != nil:
			t.Fatalf("%s rows: JSON stream: %v", name, err)
		case refErr == nil && !bytes.Equal(b, ref.Bytes()):
			t.Fatalf("%s rows: JSON stream diverges from reference\n  stream:    %q\n  reference: %q", name, b, ref.Bytes())
		}
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so allocation
// counts see the stream alone.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header       { return d.h }
func (*discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (*discardResponse) WriteHeader(int)             {}

// raceBuild reports a -race build, whose instrumentation makes allocation
// counts meaningless as guards.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestBinStreamRowAllocs guards the binary row path: once its chunk buffer
// has grown, binStream.Row encodes rows and frames full chunks without
// allocating.
func TestBinStreamRowAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts differ under -race")
	}
	w := &discardResponse{h: http.Header{}}
	bs := &binStream{w: w, bw: wire.NewWriter(w), chunk: defaultChunkRows}
	if err := bs.Cols([]string{"id", "name", "score"}); err != nil {
		t.Fatal(err)
	}
	row := []model.Value{model.Int(7), model.Str("a name"), model.Float(2.5)}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 4*defaultChunkRows; i++ {
			if err := bs.Row(row); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d rows through a warm binStream allocate %.0f times, want 0", 4*defaultChunkRows, allocs)
	}
}
