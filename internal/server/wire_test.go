package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flos/internal/graph"
)

// wallClock matches the response fields that read the clock: the envelope's
// elapsed_us and a trace row's per-phase timings.
var wallClock = regexp.MustCompile(`"(elapsed_us|expand_ns|solve_ns|certify_ns)":\d+`)

// TestV1Wire pins the bytes the three /v1 query routes write, for a fixed
// seeded graph with the result cache off: single-measure answers in exact
// and ε mode, with and without a trace, unified answers, two 400s, a batch
// with one out-of-range member, and the empty rankings of an isolated node.
// Only the wall-clock fields are zeroed before the compare, so any change to
// a key, its order, its omission rule or a number fails it. Regenerate
// deliberately with
//
//	FLOS_UPDATE_GOLDEN=1 go test -run TestV1Wire ./internal/server/
func TestV1Wire(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{CacheEntries: -1})
	// Node 3 of the small graph is isolated, so its rankings are empty.
	isolated, _ := serveGraph(t, graph.MustFromEdges(4, 0, 1, 1, 2), Config{CacheEntries: -1})
	requests := []struct {
		srv                *httptest.Server
		method, path, body string
	}{
		{ts, "GET", "/v1/topk?q=100&k=5&measure=php", ""},
		{ts, "GET", "/v1/topk?q=100&k=5&measure=rwr&trace=1", ""},
		{ts, "GET", "/v1/topk?q=100&k=5&measure=tht", ""},
		{ts, "GET", "/v1/topk?q=777&k=5&measure=rwr&mode=epsilon&epsilon=0.001", ""},
		{ts, "GET", "/v1/unified?q=100&k=3", ""},
		{ts, "GET", "/v1/unified?q=7&k=3&trace=1", ""},
		{ts, "GET", "/v1/topk?q=1&tau=0", ""},
		{ts, "GET", "/v1/unified?q=2000&k=3", ""},
		{ts, "POST", "/v1/topk/batch", `{"queries":[1,2,2000],"k":3,"measure":"rwr"}`},
		{isolated, "GET", "/v1/topk?q=3&k=2&measure=tht", ""},
		{isolated, "GET", "/v1/unified?q=3&k=2", ""},
		{isolated, "POST", "/v1/topk/batch", `{"queries":[3],"k":2}`},
	}
	var got strings.Builder
	for _, rq := range requests {
		req, err := http.NewRequest(rq.method, rq.srv.URL+rq.path, strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("# " + rq.method + " " + rq.path + " " + rq.body + "-> " + resp.Status + "\n")
		got.Write(wallClock.ReplaceAll(body, []byte(`"$1":0`)))
	}
	golden := filepath.Join("testdata", "v1_wire.golden")
	if os.Getenv("FLOS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with FLOS_UPDATE_GOLDEN=1): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("/v1 wire bytes drifted from %s; if intentional, regenerate with FLOS_UPDATE_GOLDEN=1:\n%s", golden, got.String())
	}
}
