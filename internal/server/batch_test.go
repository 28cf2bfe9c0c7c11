package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func postJSON(t *testing.T, url, body string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// postCounting POSTs body straight to the handler — no network, so only the
// handler reads it — and returns the status, the decoded error body (empty
// on a 200) and how many body bytes the handler consumed.
func postCounting(t *testing.T, h http.Handler, path, body string) (int, errorBody, int64) {
	t.Helper()
	cr := &countingReader{r: strings.NewReader(body)}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, cr))
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return rec.Code, eb, cr.n
}

// TestTopKBatchHappyPath: a batch answer must agree slot by slot with the
// single-query endpoint.
func TestTopKBatchHappyPath(t *testing.T) {
	ts := newTestServer(t)
	var body v1BatchBody
	code := postJSON(t, ts.URL+"/v1/topk/batch",
		`{"queries":[1,500,1999],"measure":"rwr","k":5}`, &body)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if body.Count != 3 || body.Errors != 0 || len(body.Results) != 3 {
		t.Fatalf("count=%d errors=%d len=%d, want 3/0/3", body.Count, body.Errors, len(body.Results))
	}
	for i, q := range []int{1, 500, 1999} {
		slot := body.Results[i]
		if int(slot.Query) != q || slot.Error != "" || !slot.Exact || len(slot.Results) != 5 {
			t.Fatalf("slot %d: %+v", i, slot)
		}
		var single v1TopKBody
		if code := getJSON(t, fmt.Sprintf("%s/v1/topk?q=%d&measure=rwr&k=5", ts.URL, q), &single); code != http.StatusOK {
			t.Fatalf("single query %d: status %d", q, code)
		}
		if !reflect.DeepEqual(slot.Results, single.Results) {
			t.Fatalf("q=%d: batch ranking %v != single ranking %v", q, slot.Results, single.Results)
		}
	}
}

// TestTopKBatchPerQueryError: an out-of-range node fails its own slot with
// a 200 response; its neighbors still get answers.
func TestTopKBatchPerQueryError(t *testing.T) {
	ts := newTestServer(t)
	var body v1BatchBody
	code := postJSON(t, ts.URL+"/v1/topk/batch",
		`{"queries":[3,1000000],"measure":"php","k":3}`, &body)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if body.Errors != 1 {
		t.Fatalf("errors=%d, want 1", body.Errors)
	}
	if body.Results[0].Error != "" || len(body.Results[0].Results) != 3 {
		t.Fatalf("good slot poisoned: %+v", body.Results[0])
	}
	if body.Results[1].Error == "" || len(body.Results[1].Results) != 0 {
		t.Fatalf("bad slot did not fail: %+v", body.Results[1])
	}
}

// TestTopKBatchCached: repeating a batch serves the slots from the result
// cache.
func TestTopKBatchCached(t *testing.T) {
	ts := newTestServer(t)
	const req = `{"queries":[7,8],"measure":"ei","k":4}`
	var first, second v1BatchBody
	if code := postJSON(t, ts.URL+"/v1/topk/batch", req, &first); code != http.StatusOK {
		t.Fatalf("first: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/topk/batch", req, &second); code != http.StatusOK {
		t.Fatalf("second: status %d", code)
	}
	for i := range second.Results {
		if !second.Results[i].Cached {
			t.Errorf("slot %d not cached on repeat", i)
		}
		if !reflect.DeepEqual(first.Results[i].Results, second.Results[i].Results) {
			t.Errorf("slot %d: cached ranking differs", i)
		}
	}
}

// TestTopKBatchBadRequests: batch-level mistakes are rejected wholesale.
func TestTopKBatchBadRequests(t *testing.T) {
	ts, srv := newTestServerCfg(t, Config{MaxBatch: 4})
	const bodyLimit = 4096 + 64*4
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{"queries":`, 400},
		{"empty queries", `{"queries":[]}`, 400},
		{"over max batch", `{"queries":[1,2,3,4,5]}`, 400},
		{"bad measure", `{"queries":[1],"measure":"nope"}`, 400},
		{"bad k", `{"queries":[1],"k":-2}`, 400},
		{"bad params", `{"queries":[1],"measure":"rwr","c":1.5}`, 400},
		{"non-finite tau", `{"queries":[1],"tau":1e999}`, 400},
		// A 1 MiB body is refused by size, not buffered and decoded first.
		{"over body limit", `{"queries":[` + strings.Repeat("1,", 1<<19) + `1]}`, 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, eb, read := postCounting(t, srv.Handler(), "/v1/topk/batch", tc.body)
			if code != tc.want {
				t.Fatalf("status %d, want %d (error %q)", code, tc.want, eb.Error)
			}
			if eb.Error == "" {
				t.Fatalf("%d without an error message", code)
			}
			if read > bodyLimit+1 {
				t.Fatalf("handler read %d body bytes, limit is %d", read, bodyLimit)
			}
		})
	}

	// Wrong method: GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/topk/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}
