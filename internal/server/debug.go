package server

// The /debug/flos/* endpoints: flight recorder, slow-query log, SLO burn
// rates, kept traces and cache analytics. Each answers a structured 404 when
// its plane is disabled.

import (
	"net/http"
	"strconv"

	"flos/internal/obs"
	"flos/internal/obs/cachelens"
	"flos/internal/obs/trace"
)

// parseN reads the optional ?n= count of a debug endpoint, def when omitted.
// A malformed or non-positive value is answered with a 400 and ok=false.
func parseN(w http.ResponseWriter, r *http.Request, def int) (n int, ok bool) {
	v := r.URL.Query().Get("n")
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		badRequest(w, "bad n: %q", v)
		return 0, false
	}
	return n, true
}

// flightDumpBody is the payload of both flight-recorder endpoints; Records
// is newest-first. The same shape is accepted by `flos -replay`.
type flightDumpBody struct {
	// Recorded counts every query ever recorded; SlowTotal every promotion
	// into the slow-query log (both outlive the ring/log retention).
	Recorded  uint64              `json:"recorded"`
	SlowTotal uint64              `json:"slow_total"`
	Records   []*obs.FlightRecord `json:"records"`
}

// handleSlow serves the retained slow-query log: records promoted past the
// recorder's latency/visited thresholds, trajectories included, ready for
// offline replay with `flos -replay`.
func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	if s.rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "flight recorder disabled (-flightrec 0)"})
		return
	}
	writeJSON(w, http.StatusOK, flightDumpBody{
		Recorded:  s.rec.Recorded(),
		SlowTotal: s.rec.SlowCount(),
		Records:   s.rec.Slow(),
	})
}

// handleFlightRec serves the newest n records of the flight-recorder ring
// (?n=, default 32) — slow or not, the rolling view of recent traffic.
func (s *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "flight recorder disabled (-flightrec 0)"})
		return
	}
	n, ok := parseN(w, r, 32)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, flightDumpBody{
		Recorded:  s.rec.Recorded(),
		SlowTotal: s.rec.SlowCount(),
		Records:   s.rec.Last(n),
	})
}

// handleSLO serves the multi-window burn-rate snapshot.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	if s.slo == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "SLO tracking disabled"})
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

// traceSummaryBody is one kept trace's row in the list view.
type traceSummaryBody struct {
	TraceID       string `json:"trace_id"`
	Root          string `json:"root"`
	Status        string `json:"status"`
	Sampled       string `json:"sampled"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationUS    int64  `json:"duration_us"`
	Spans         int    `json:"spans"`
}

// traceListBody is the GET /debug/flos/traces payload: tracer counters plus
// the newest kept traces (summaries; fetch one by ?id= for its span tree).
type traceListBody struct {
	Started  uint64             `json:"started"`
	KeptHead uint64             `json:"kept_head"`
	KeptTail uint64             `json:"kept_tail"`
	Dropped  uint64             `json:"dropped"`
	Traces   []traceSummaryBody `json:"traces"`
}

// traceDetailBody is the ?id= payload: the retained trace with its spans
// assembled into the parent-child tree.
type traceDetailBody struct {
	*trace.Trace
	Tree []*trace.SpanNode `json:"tree"`
}

// handleTraces serves the completed-trace ring: the list view with tracer
// counters, or — with ?id=<32-hex trace id> — one trace's full span tree.
// A trace that was never kept (head-dropped without a tail promotion) or has
// been lapped out of the ring answers 404.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "span tracing disabled (-flightrec 0)"})
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		tr := s.tracer.Get(id)
		if tr == nil {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "trace not retained: " + id})
			return
		}
		writeJSON(w, http.StatusOK, traceDetailBody{Trace: tr, Tree: tr.Tree()})
		return
	}
	n, ok := parseN(w, r, 32)
	if !ok {
		return
	}
	st := s.tracer.Stats()
	body := traceListBody{
		Started:  st.Started,
		KeptHead: st.KeptHead,
		KeptTail: st.KeptTail,
		Dropped:  st.Dropped,
		Traces:   []traceSummaryBody{},
	}
	for _, tr := range s.tracer.Last(n) {
		body.Traces = append(body.Traces, traceSummaryBody{
			TraceID:       tr.TraceID,
			Root:          tr.Root,
			Status:        tr.Status,
			Sampled:       tr.Sampled,
			StartUnixNano: tr.StartUnixNano,
			DurationUS:    tr.DurationUS,
			Spans:         len(tr.Spans),
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// pageLens returns the disk store's row-lookup lens (the page_cache plane):
// attached on the store before the server was built, nil for
// memory-resident graphs or when analytics are off.
func (s *Server) pageLens() *cachelens.Lens {
	if s.store == nil {
		return nil
	}
	return s.store.Lens()
}

// cacheLensBody is the GET /debug/flos/cache payload: one analytics snapshot
// per instrumented cache. A cache without a lens is omitted, so the body also
// documents which planes are on.
type cacheLensBody struct {
	PageCache   *cachelens.Snapshot `json:"page_cache,omitempty"`
	ResultCache *cachelens.Snapshot `json:"result_cache,omitempty"`
}

// cacheLens snapshots every cache that has a lens attached; nil when none
// has.
func (s *Server) cacheLens() *cacheLensBody {
	pl, rl := s.pageLens(), s.resultLens
	if pl == nil && rl == nil {
		return nil
	}
	body := &cacheLensBody{}
	if pl != nil {
		snap := pl.Snapshot()
		body.PageCache = &snap
	}
	if rl != nil {
		snap := rl.Snapshot()
		body.ResultCache = &snap
	}
	return body
}

// handleCacheLens serves the cache-analytics snapshots: miss-ratio curves
// and working-set windows for every cache with a lens attached. 404 when
// analytics are off everywhere — the same discipline as the other debug
// endpoints.
func (s *Server) handleCacheLens(w http.ResponseWriter, r *http.Request) {
	body := s.cacheLens()
	if body == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "cache analytics disabled (-cachelens=false)"})
		return
	}
	writeJSON(w, http.StatusOK, body)
}
