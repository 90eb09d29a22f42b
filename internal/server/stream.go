package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/plan"
	"gdbm/internal/server/wire"
)

// defaultChunkRows bounds how many rows accumulate before a flush. Small
// enough that a slow consumer sees first rows promptly and a cancelled
// query stops within one chunk of work; large enough that framing and
// flush syscalls amortize.
const defaultChunkRows = 256

// errNoInBandError marks an encoding with no way to signal failure after
// the response has committed; the handler must abort the connection.
var errNoInBandError = errors.New("encoding cannot carry an in-band error")

// respStreamer is a plan.Sink wired to an HTTP response: rows go to the
// client as produced, then exactly one of finish (success trailer) or
// abort (failure) ends the stream.
type respStreamer interface {
	plan.Sink
	// committed reports whether response bytes are already on the wire;
	// before that, failures can still answer a plain HTTP error status.
	committed() bool
	// finish writes the last partial chunk and the encoding's trailer but
	// does not flush: the handler's return does, so a response that fits
	// net/http's buffer goes out in one write with a Content-Length.
	finish(elapsed time.Duration) error
	// abort reports a post-commit failure in-band when the encoding can;
	// errNoInBandError (or a write failure) tells the handler to abort
	// the connection instead.
	abort(status int, msg string) error
}

// newRespStream negotiates the response encoding: an Accept header naming
// the wire content type selects binary framing, anything else streams the
// JSON shape the buffered path always produced.
func (s *Server) newRespStream(w http.ResponseWriter, r *http.Request) respStreamer {
	flusher, _ := w.(http.Flusher)
	chunks := s.metrics.Counter("server.stream.chunks")
	if strings.Contains(r.Header.Get("Accept"), wire.ContentType) {
		return &binStream{w: w, flush: flusher, bw: wire.NewWriter(w), chunk: s.chunkRows, chunks: chunks}
	}
	return &jsonStream{w: w, flush: flusher, chunk: s.chunkRows, chunks: chunks}
}

// jsonStream streams the exact byte shape of the buffered JSON encoding —
// {"cols":...,"rows":[...],"elapsed_ms":...}\n — writing rows as they
// arrive and flushing every chunk rows. Compositionality of JSON encoding
// makes the concatenation of per-element json.Marshal calls identical to
// one json.Encoder pass over the whole result; the twin tests pin this
// byte-for-byte against a buffered reference encoding.
type jsonStream struct {
	w      http.ResponseWriter
	flush  http.Flusher // nil when the writer cannot flush
	chunk  int
	chunks *obs.Counter // nil in unit tests that build the stream directly

	began      bool
	rows       int
	sinceFlush int
	buf        []byte // reused to prefix a row with its separator
}

func (j *jsonStream) Cols(cols []string) error {
	if cols == nil {
		cols = []string{}
	}
	b, err := json.Marshal(cols)
	if err != nil {
		return err
	}
	j.w.Header().Set("Content-Type", "application/json")
	j.w.WriteHeader(http.StatusOK)
	j.began = true
	buf := append([]byte(`{"cols":`), b...)
	buf = append(buf, `,"rows":[`...)
	_, err = j.w.Write(buf)
	return err
}

func (j *jsonStream) Row(vals []model.Value) error {
	row := make([]any, len(vals))
	for i, v := range vals {
		row[i] = v.Native()
	}
	b, err := json.Marshal(row)
	if err != nil {
		return err
	}
	if j.rows > 0 {
		j.buf = append(append(j.buf[:0], ','), b...)
		b = j.buf
	}
	if _, err := j.w.Write(b); err != nil {
		return err
	}
	j.rows++
	j.sinceFlush++
	if j.sinceFlush >= j.chunk {
		j.sinceFlush = 0
		if j.chunks != nil {
			j.chunks.Inc()
		}
		if j.flush != nil {
			j.flush.Flush()
		}
	}
	return nil
}

func (j *jsonStream) committed() bool { return j.began }

func (j *jsonStream) finish(elapsed time.Duration) error {
	if !j.began {
		if err := j.Cols(nil); err != nil {
			return err
		}
	}
	b, err := json.Marshal(float64(elapsed) / float64(time.Millisecond))
	if err != nil {
		return err
	}
	buf := append([]byte(`],"elapsed_ms":`), b...)
	buf = append(buf, '}', '\n')
	_, err = j.w.Write(buf)
	return err
}

func (j *jsonStream) abort(int, string) error { return errNoInBandError }

// binStream frames rows per the wire protocol, up to chunk rows per Chunk
// frame. Each row is encoded into the pending chunk payload as it arrives
// (wire.AppendRow), so no row outlives its Row call and a warm stream
// allocates nothing per row. A post-commit failure becomes an in-band
// Error frame, so a binary client can always distinguish truncation from
// completion.
type binStream struct {
	w      http.ResponseWriter
	flush  http.Flusher
	bw     *wire.Writer
	chunk  int
	chunks *obs.Counter // nil in unit tests that build the stream directly

	began   bool
	rows    int    // rows sent or pending, for the End frame
	pending int    // rows encoded into buf, not yet framed
	buf     []byte // their wire.AppendRow encoding
}

func (b *binStream) Cols(cols []string) error {
	b.w.Header().Set("Content-Type", wire.ContentType)
	b.w.WriteHeader(http.StatusOK)
	b.began = true
	return b.bw.Header(cols)
}

func (b *binStream) Row(vals []model.Value) error {
	enc, err := wire.AppendRow(b.buf, vals)
	if err != nil {
		return err
	}
	b.buf = enc
	b.pending++
	b.rows++
	if b.pending < b.chunk {
		return nil
	}
	if err := b.writeChunk(); err != nil {
		return err
	}
	if b.flush != nil {
		b.flush.Flush()
	}
	return nil
}

// writeChunk frames the pending rows as one Chunk frame, counted in
// server.stream.chunks; the caller decides whether to flush.
func (b *binStream) writeChunk() error {
	if b.pending == 0 {
		return nil
	}
	if err := b.bw.EncodedChunk(b.pending, b.buf); err != nil {
		return err
	}
	b.buf, b.pending = b.buf[:0], 0
	if b.chunks != nil {
		b.chunks.Inc()
	}
	return nil
}

func (b *binStream) committed() bool { return b.began }

func (b *binStream) finish(elapsed time.Duration) error {
	if !b.began {
		if err := b.Cols(nil); err != nil {
			return err
		}
	}
	if err := b.writeChunk(); err != nil {
		return err
	}
	return b.bw.End(b.rows, elapsed)
}

func (b *binStream) abort(status int, msg string) error {
	// Pending rows are dropped: the client discards partial rows on an
	// Error frame anyway, and the frame must go out before the peer's
	// deadline, not after one more chunk.
	if err := b.bw.Error(status, msg); err != nil {
		return err
	}
	if b.flush != nil {
		b.flush.Flush()
	}
	return nil
}
