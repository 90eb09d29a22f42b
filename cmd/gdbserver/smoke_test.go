package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"gdbm/internal/server/loadgen"
	"gdbm/internal/server/wire"
)

// TestServeSmoke is the end-to-end overload drill `make serve-smoke` runs:
// build the real gdbserver binary, start it on a loopback port, drive a
// short loadgen burst at 2× the configured capacity, run a binary-protocol
// pass and a streamed multi-chunk large-result request, and SIGTERM the
// server. Pass criteria: the burst is shed (not crashed into), nothing
// hard-fails, both encodings deliver complete results, and the drain
// completes cleanly with exit status 0.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real server binary")
	}
	serverBin := filepath.Join(t.TempDir(), "gdbserver")
	if out, err := exec.Command("go", "build", "-o", serverBin, "gdbm/cmd/gdbserver").CombinedOutput(); err != nil {
		t.Fatalf("build gdbserver: %v\n%s", err, out)
	}

	const capacity = 50
	const seedNodes = 200
	srv := exec.Command(serverBin,
		"-addr", "127.0.0.1:0",
		"-engines", "neograph",
		"-seed-nodes", fmt.Sprint(seedNodes),
		"-rate", fmt.Sprint(capacity), "-burst", "10",
		"-inflight", "8", "-queue", "8",
		// Small chunks so the large-result request below streams across
		// several flushes rather than fitting one chunk.
		"-chunk-rows", "32",
	)
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	deadline := time.After(30 * time.Second)
	linec := make(chan string, 1)
	go func() {
		if sc.Scan() {
			linec <- sc.Text()
		}
		close(linec)
	}()
	select {
	case line := <-linec:
		m := addrRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unexpected first line: %q", line)
		}
		addr = m[1]
	case <-deadline:
		t.Fatal("server never announced its address")
	}
	// Keep draining server stdout so the pipe never blocks it, and keep
	// the text for the drain assertions.
	restc := make(chan string, 1)
	go func() {
		var b strings.Builder
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		restc <- b.String()
	}()

	// 2× capacity burst through the open-loop client, then a gentle
	// binary-protocol pass that must complete framed responses and account
	// response bytes.
	load := func(mult float64, window time.Duration, proto string) *loadgen.Result {
		t.Helper()
		res, err := loadgen.Run(loadgen.Config{
			Target:     "http://" + addr,
			Engine:     "neograph",
			Class:      "interactive",
			Stmt:       func(int) string { return `MATCH (a:N) RETURN count(*) AS n` },
			Rate:       capacity * mult,
			Duration:   window,
			Seed:       42,
			MaxRetries: 2,
			Proto:      proto,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p := load(2, 1500*time.Millisecond, "json")
	if p.ShedAttempts == 0 {
		t.Errorf("2× burst was never shed (offered %d, completed %d); admission control did not engage", p.Offered, p.Completed)
	}
	if p.Failed != 0 {
		t.Errorf("hard failures under overload: %d (shed-not-crash violated): %+v", p.Failed, p)
	}
	if p.Completed == 0 {
		t.Error("no request completed at 2× load; server collapsed instead of shedding")
	}
	bp := load(0.5, 800*time.Millisecond, "binary")
	if bp.Completed == 0 || bp.Failed != 0 {
		t.Errorf("binary pass: completed=%d failed=%d: %+v", bp.Completed, bp.Failed, bp)
	}
	if bp.BytesPerQuery <= 0 {
		t.Errorf("binary pass did not account response bytes: %+v", bp)
	}

	// Streamed large result: one row per seeded node, forced across many
	// 32-row chunks, byte-complete on both encodings.
	stmt := `MATCH (a:N) RETURN a.idx AS i`
	body, _ := json.Marshal(map[string]any{"stmt": stmt, "engine": "neograph"})
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := wire.Collect(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("collect framed stream: %v", err)
	}
	if len(framed.Rows) != seedNodes || framed.End.Rows != seedNodes {
		t.Errorf("framed large result: %d rows, end declares %d, want %d", len(framed.Rows), framed.End.Rows, seedNodes)
	}
	jr, err := http.Post("http://"+addr+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jres struct {
		Rows [][]any `json:"rows"`
	}
	err = json.NewDecoder(jr.Body).Decode(&jres)
	jr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(jres.Rows) != seedNodes {
		t.Errorf("streamed JSON large result: %d rows, want %d", len(jres.Rows), seedNodes)
	}

	// Graceful drain on SIGTERM: clean exit, explicit drain markers.
	http.DefaultClient.CloseIdleConnections()
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Read stdout to EOF before Wait: Wait closes the pipe and would race
	// the scanner out of the final drain lines.
	var rest string
	select {
	case rest = <-restc:
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("server exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if !strings.Contains(rest, "drained cleanly") {
		t.Errorf("missing clean-drain marker; server output:\n%s", rest)
	}
}
