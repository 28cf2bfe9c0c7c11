package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"flos/internal/graph"
	"flos/internal/measure"
)

// answer is the part of a /v1/topk response the correctness gate reads.
type answer struct {
	APIVersion string `json:"api_version"`
	Cached     bool   `json:"cached"`
	Results    []struct {
		Node  graph.NodeID `json:"node"`
		Score float64      `json:"score"`
	} `json:"results"`
	Certification struct {
		Certified bool    `json:"certified"`
		Gap       float64 `json:"gap"`
	} `json:"certification"`
}

func (a *answer) ranked() []measure.Ranked {
	out := make([]measure.Ranked, len(a.Results))
	for i, r := range a.Results {
		out[i] = measure.Ranked{Node: r.Node, Score: r.Score}
	}
	return out
}

// mutationAck is the part of a /v1/graph/edges response the gate reads.
type mutationAck struct {
	Applied int `json:"applied"`
}

// opRecord is one completed operation of the timed window.
type opRecord struct {
	req       request
	at        time.Duration // send time, from the start of the timed window
	latency   time.Duration // send until the body is fully read
	bytes     int           // response body bytes
	failure   string        // empty when the operation passed the correctness gate
	httpError bool          // transport error or a status other than 200
	ans       *answer       // reads only
}

// checkRead applies the per-response part of the correctness gate: 200,
// api_version, k results, certified, and gap within epsilon in epsilon mode.
// Set equality with the in-process engine and the oracle audit run on a
// sample afterwards (verify.go).
func checkRead(r request, status int, body []byte) (*answer, string) {
	if status != http.StatusOK {
		return nil, fmt.Sprintf("status %d: %.120s", status, body)
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, "bad JSON: " + err.Error()
	}
	switch {
	case a.APIVersion != "v1":
		return &a, fmt.Sprintf("api_version %q", a.APIVersion)
	case len(a.Results) != r.K:
		return &a, fmt.Sprintf("%d results, want %d", len(a.Results), r.K)
	case !a.Certification.Certified:
		return &a, "not certified"
	case r.Eps > 0 && a.Certification.Gap > r.Eps:
		return &a, fmt.Sprintf("gap %g exceeds epsilon %g", a.Certification.Gap, r.Eps)
	}
	return &a, ""
}

func checkMutation(status int, body []byte) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d: %.120s", status, body)
	}
	var ack mutationAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return "bad JSON: " + err.Error()
	}
	if ack.Applied != 1 {
		return fmt.Sprintf("applied %d ops, want 1", ack.Applied)
	}
	return ""
}

// client is one closed-loop HTTP/1.1 client: one goroutine, one keep-alive
// connection, one write and one blocking read per request. net/http's client
// hands every request to a writer and a reader goroutine and back, which on a
// 0.2 ms cache hit made a third of the measured round trip the load
// generator's own scheduling, and the noisiest third.
type client struct {
	addr string // host:port
	conn net.Conn
	br   *bufio.Reader
	out  []byte
	buf  bytes.Buffer
}

// requestTimeout bounds one round trip; no workload has an operation within
// two orders of magnitude of it.
const requestTimeout = 60 * time.Second

func newClient(base string) *client {
	return &client{addr: strings.TrimPrefix(base, "http://")}
}

// close drops the connection; the next request dials a new one.
func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request and returns status, body and the time from send until
// the body was fully read. The returned body is valid until the next call.
func (c *client) do(r request) (status int, body []byte, latency time.Duration, err error) {
	method, path, payload := r.target()
	c.out = append(c.out[:0], method...)
	c.out = append(c.out, ' ')
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.addr...)
	if payload != nil {
		c.out = append(c.out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		c.out = strconv.AppendInt(c.out, int64(len(payload)), 10)
	}
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, payload...)
	if c.conn == nil {
		if c.conn, err = net.DialTimeout("tcp", c.addr, requestTimeout); err != nil {
			c.conn = nil
			return 0, nil, 0, err
		}
		c.br = bufio.NewReader(c.conn)
	}
	start := time.Now()
	_ = c.conn.SetDeadline(start.Add(requestTimeout)) // fails only on a closed connection, and then so does the Write
	if _, err = c.conn.Write(c.out); err != nil {
		c.close()
		return 0, nil, time.Since(start), err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	latency = time.Since(start)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return resp.StatusCode, nil, latency, err
	}
	return resp.StatusCode, c.buf.Bytes(), latency, nil
}

// exec runs one operation through the per-response gate.
func (c *client) exec(r request) opRecord {
	rec := opRecord{req: r}
	status, body, lat, err := c.do(r)
	rec.latency, rec.bytes = lat, len(body)
	rec.httpError = err != nil || status != http.StatusOK
	switch {
	case err != nil:
		rec.failure = "transport: " + err.Error()
	case r.Mutate:
		rec.failure = checkMutation(status, body)
	default:
		rec.ans, rec.failure = checkRead(r, status, body)
	}
	return rec
}

// driveResult is what the timed window produced.
type driveResult struct {
	ops       [][]opRecord  // per client, in send order
	window    time.Duration // length of the timed window; operations in flight when it closed ran to their end
	sent      []int         // per client: requests consumed from its list, warm-up included
	exhausted bool          // a client ran out of generated requests before the window closed
	rssMB     []float64     // VmRSS of the server, sampled through the window
	before    *serverMetrics
	after     *serverMetrics
}

// rssSampleEvery is the period at which the server's resident set is read
// while the window runs.
const rssSampleEvery = 250 * time.Millisecond

// drive runs the closed-loop clients against srv: each walks its own request
// list, first warmOps requests unrecorded (caches fill, lazy set-up finishes;
// a count and not a time, so every run of a seed enters the window with the
// same requests behind it), then recorded for window. Server metrics are
// scraped at both edges of the window, so count deltas exclude the warm-up.
func drive(srv *flosd, lists [][]request, warmOps int, window time.Duration) (*driveResult, error) {
	res := &driveResult{ops: make([][]opRecord, len(lists)), window: window}
	clients := make([]*client, len(lists))
	next := make([]int, len(lists))
	for c := range lists {
		clients[c] = newClient(srv.base)
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	// phase lets every client send until it has sent maxOps requests in this
	// phase, the phase has lasted d, or its list is exhausted.
	phase := func(maxOps int, d time.Duration, record bool) {
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for c := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sent := 0; sent < maxOps && next[c] < len(lists[c]) && time.Now().Before(deadline); sent++ {
					at := time.Since(start)
					rec := clients[c].exec(lists[c][next[c]])
					rec.at = at
					next[c]++
					if record {
						res.ops[c] = append(res.ops[c], rec)
					}
				}
			}()
		}
		wg.Wait()
	}

	phase(warmOps, time.Hour, false)
	var err error
	if res.before, err = srv.scrape(); err != nil {
		return nil, err
	}
	sampled := make(chan struct{})
	stopSampling := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				if mb, err := srv.procStatusMB("VmRSS"); err == nil {
					res.rssMB = append(res.rssMB, mb)
				}
			}
		}
	}()
	phase(math.MaxInt, window, true)
	close(stopSampling)
	<-sampled
	if res.after, err = srv.scrape(); err != nil {
		return nil, err
	}
	res.sent = next
	for c := range lists {
		res.exhausted = res.exhausted || next[c] == len(lists[c])
	}
	return res, nil
}
