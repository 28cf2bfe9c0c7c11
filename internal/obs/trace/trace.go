// Package trace is the stdlib-only distributed-tracing layer of the serving
// stack: explicit parent-child spans with monotonic timestamps and typed
// attributes, W3C traceparent propagation at the process boundary, and a
// head-sampled / tail-promoted retention policy over a lock-free ring of
// completed traces.
//
// The design follows the paper's cost model: a FLoS query is a short, bounded
// local search, so capturing every span of every request is cheap — the
// expensive part of tracing is *retention*, not recording. Every request
// therefore records its full span set into a per-request Active buffer, and
// the keep/drop decision is deferred to the end of the request (tail-based
// sampling): head-sampled traces are kept by a deterministic hash of the
// trace ID, and any trace that ends slow, shed, deadline-exceeded, or failed
// is promoted regardless of the head decision. "The p99 request" is thus
// always reconstructible as a span tree, even at a 0% head rate.
//
// Trace IDs are the join key across the rest of the observability plane:
// flight-recorder and slow-query-log records (and so latency exemplars) and
// access logs all carry them.
//
// Nothing here imports outside the standard library.
package trace

import (
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ID is a 16-byte W3C trace ID (32 lowercase hex on the wire).
type ID [16]byte

// SpanID is an 8-byte W3C span/parent ID (16 lowercase hex on the wire).
type SpanID [8]byte

// IsZero reports the invalid all-zero trace ID.
func (id ID) IsZero() bool { return id == ID{} }

// String returns the 32-char lowercase hex form.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports the invalid all-zero span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-char lowercase hex form ("" for the zero ID, which
// marks a root span in serialized output).
func (s SpanID) String() string {
	if s.IsZero() {
		return ""
	}
	return hex.EncodeToString(s[:])
}

// ParseID parses a 32-char lowercase hex trace ID; the all-zero ID is
// rejected per the W3C spec.
func ParseID(s string) (ID, error) {
	var id ID
	if len(s) != 32 {
		return id, fmt.Errorf("trace: trace-id %q: want 32 hex chars, got %d", s, len(s))
	}
	if err := parseLowerHex(id[:], s); err != nil {
		return ID{}, fmt.Errorf("trace: trace-id %q: %v", s, err)
	}
	if id.IsZero() {
		return ID{}, fmt.Errorf("trace: trace-id %q is all-zero", s)
	}
	return id, nil
}

// parseSpanID parses a 16-char lowercase hex span ID, rejecting all-zero.
func parseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 16 {
		return id, fmt.Errorf("trace: parent-id %q: want 16 hex chars, got %d", s, len(s))
	}
	if err := parseLowerHex(id[:], s); err != nil {
		return SpanID{}, fmt.Errorf("trace: parent-id %q: %v", s, err)
	}
	if id.IsZero() {
		return SpanID{}, fmt.Errorf("trace: parent-id %q is all-zero", s)
	}
	return id, nil
}

// parseLowerHex decodes s into dst, rejecting uppercase digits — the W3C
// header is defined over lowercase hex only, and encoding/hex would silently
// accept the uppercase forms.
func parseLowerHex(dst []byte, s string) error {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return fmt.Errorf("non-lowercase-hex byte %q", c)
		}
	}
	_, err := hex.Decode(dst, []byte(s))
	return err
}

// idSeq and idSeed drive the process-local ID generator: a splitmix64 stream
// over an atomic counter, seeded from the process start time. One atomic add
// per ID, no locks, uniform bit distribution (which the head sampler's
// threshold test relies on), and no collisions within a process.
var (
	idSeq  atomic.Uint64
	idSeed = uint64(time.Now().UnixNano())
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewID mints a fresh pseudorandom trace ID.
func NewID() ID {
	n := idSeq.Add(1)
	hi, lo := splitmix64(idSeed+2*n), splitmix64(idSeed+2*n+1)
	var id ID
	putU64(id[0:8], hi)
	putU64(id[8:16], lo)
	if id.IsZero() { // astronomically unlikely, but the zero ID is invalid
		id[15] = 1
	}
	return id
}

// NewSpanID mints a fresh pseudorandom span ID.
func NewSpanID() SpanID {
	n := idSeq.Add(1)
	var id SpanID
	putU64(id[:], splitmix64(idSeed^0xa5a5a5a5a5a5a5a5+n))
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// Attr is one typed span attribute. Exactly the field named by Type carries
// the value; the constructors below keep the pairing correct.
type Attr struct {
	Key  string `json:"key"`
	Type string `json:"type"` // "string" | "int" | "bool"

	Str  string `json:"str,omitempty"`
	Int  int64  `json:"int,omitempty"`
	Bool bool   `json:"bool,omitempty"`
}

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Type: "string", Str: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Type: "int", Int: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Type: "bool", Bool: v} }

// Span is one completed span. Timestamps are split the way Go's clock is:
// StartUnixNano is wall time (for cross-process alignment), DurationNS is
// monotonic (End−Start on the monotonic clock, immune to wall clock steps).
type Span struct {
	ID     string `json:"span_id"`
	Parent string `json:"parent_span_id,omitempty"`
	Name   string `json:"name"`
	// Kind is "server" for boundary spans, "internal" otherwise.
	Kind          string `json:"kind,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNS    int64  `json:"duration_ns"`
	Attrs         []Attr `json:"attrs,omitempty"`
	// Error is non-empty when the span ended in failure.
	Error string `json:"error,omitempty"`
}

// Trace is one retained request: its full span set plus the retention
// verdict. Immutable once published to the ring.
type Trace struct {
	TraceID string `json:"trace_id"`
	// Root is the boundary span's name ("GET /topk").
	Root string `json:"root"`
	// Status is the request outcome the boundary reported ("ok", "shed",
	// "deadline", "failed", ...).
	Status string `json:"status"`
	// Sampled records why the trace was kept: "head" for the hash decision,
	// "tail:<reason>" for promotions (slow, shed, deadline, failed, or a
	// reason a lower layer forced with Active.Promote).
	Sampled       string `json:"sampled"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationUS    int64  `json:"duration_us"`
	Spans         []Span `json:"spans"`
}

// Config tunes a Tracer. The zero value keeps every trace and retains 256.
type Config struct {
	// HeadRate is the fraction of traces kept by the head sampler, decided
	// deterministically from the trace ID so every process in a request's
	// path reaches the same verdict. 0 keeps none (tail promotion still
	// applies); values >= 1 keep all. Negative is treated as 0.
	HeadRate float64
	// Ring bounds the completed-trace ring; 0 selects 256.
	Ring int
	// SlowLatency tail-promotes any trace whose end-to-end latency reaches
	// it — by convention the same threshold the slow-query log uses, so the
	// two planes promote the same requests. 0 selects 250ms; negative
	// disables latency promotion.
	SlowLatency time.Duration
}

// HeadAll is the Config.HeadRate that keeps every trace.
const HeadAll = 1.0

func (c Config) withDefaults() Config {
	if c.Ring <= 0 {
		c.Ring = 256
	}
	if c.HeadRate < 0 {
		c.HeadRate = 0
	}
	if c.SlowLatency == 0 {
		c.SlowLatency = 250 * time.Millisecond
	}
	return c
}

// Tracer owns the retention policy and the lock-free ring of completed
// traces. The record path (Active spans) never touches the Tracer; only
// Finish does, with one atomic add plus one atomic pointer store for kept
// traces — the same shape as the flight recorder's ring.
type Tracer struct {
	cfg Config

	seq  atomic.Uint64
	ring []atomic.Pointer[Trace]

	started  atomic.Uint64
	keptHead atomic.Uint64
	keptTail atomic.Uint64
	dropped  atomic.Uint64
}

// New builds a Tracer (zero cfg = defaults: keep everything, ring of 256).
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{cfg: cfg, ring: make([]atomic.Pointer[Trace], cfg.Ring)}
}

// headKeep is the deterministic head-sampling verdict: the trace ID's first
// 8 bytes, read as a uniform uint64, land under the rate threshold. Every
// service hashing the same ID reaches the same verdict, so a distributed
// trace is kept or dropped whole.
func (t *Tracer) headKeep(id ID) bool {
	if t.cfg.HeadRate >= 1 {
		return true
	}
	if t.cfg.HeadRate <= 0 {
		return false
	}
	u := uint64(0)
	for _, b := range id[:8] {
		u = u<<8 | uint64(b)
	}
	return float64(u) < t.cfg.HeadRate*float64(1<<63)*2
}

// StartRequest opens the per-request span buffer. A zero parent mints a new
// trace; a parsed inbound traceparent continues the caller's trace (and its
// sampled flag forces head retention, honoring the upstream decision). Safe
// on a nil Tracer, which returns nil — and every Active/SpanHandle method is
// nil-safe, so call sites need no tracing-enabled branches.
func (t *Tracer) StartRequest(parent TraceParent) *Active {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	a := &Active{tracer: t, start: time.Now()}
	if parent.Trace.IsZero() {
		a.id = NewID()
	} else {
		a.id = parent.Trace
		a.remoteParent = parent.Span
	}
	a.headKept = parent.Sampled || t.headKeep(a.id)
	a.spans = make([]Span, 0, 16)
	return a
}

// Last returns up to n of the most recently kept traces, newest first
// (n <= 0 selects the full ring).
func (t *Tracer) Last(n int) []*Trace {
	size := len(t.ring)
	if n <= 0 || n > size {
		n = size
	}
	head := t.seq.Load()
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := int64(head) - 1 - int64(i)
		if idx < 0 {
			break
		}
		if tr := t.ring[idx%int64(size)].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Get returns the retained trace with the given hex ID, or nil if it was
// never kept or has been lapped out of the ring.
func (t *Tracer) Get(id string) *Trace {
	for _, tr := range t.Last(0) {
		if tr.TraceID == id {
			return tr
		}
	}
	return nil
}

// Stats is the tracer's counter snapshot.
type Stats struct {
	// Started counts requests that opened a trace; KeptHead/KeptTail split
	// the retained ones by decision; Dropped is the rest.
	Started, KeptHead, KeptTail, Dropped uint64
}

// Stats returns current counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:  t.started.Load(),
		KeptHead: t.keptHead.Load(),
		KeptTail: t.keptTail.Load(),
		Dropped:  t.dropped.Load(),
	}
}

// Active is one in-flight request's span buffer. Span handles append to it
// under a short mutex, so concurrent children (batch fan-out slots) record
// safely; everything else about a request's trace is single-writer.
type Active struct {
	tracer       *Tracer
	id           ID
	remoteParent SpanID
	headKept     bool
	start        time.Time

	mu       sync.Mutex
	spans    []Span
	promoted string
	finished bool
}

// TraceID returns the trace ID (zero on nil).
func (a *Active) TraceID() ID {
	if a == nil {
		return ID{}
	}
	return a.id
}

// TraceIDString returns the hex trace ID, "" on nil — the form the exemplar,
// flight-record, and access-log join keys store.
func (a *Active) TraceIDString() string {
	if a == nil {
		return ""
	}
	return a.id.String()
}

// RemoteParent returns the inbound traceparent's span ID (zero when the
// trace originated here); the boundary span uses it as its parent so the
// caller's trace nests this process's spans.
func (a *Active) RemoteParent() SpanID {
	if a == nil {
		return SpanID{}
	}
	return a.remoteParent
}

// HeadSampled reports the head decision — the sampled flag outbound
// traceparent headers carry downstream.
func (a *Active) HeadSampled() bool { return a != nil && a.headKept }

// Promote forces tail retention with the given reason, regardless of the
// head verdict — the hook lower layers use for conditions only they can see
// (e.g. a visited-set size over the slow-query threshold).
func (a *Active) Promote(reason string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.promoted == "" {
		a.promoted = reason
	}
	a.mu.Unlock()
}

// StartSpan opens a child of parent (zero parent = a root span). Start time
// is now; End appends the completed record.
func (a *Active) StartSpan(parent SpanID, name string, attrs ...Attr) *SpanHandle {
	if a == nil {
		return nil
	}
	return &SpanHandle{a: a, id: NewSpanID(), parent: parent, name: name, start: time.Now(), attrs: attrs}
}

// AddSpan records an already-timed span — the bridge for measurements that
// arrive as (start, duration) aggregates, like the solver's per-phase totals
// and disk page-fault stalls.
func (a *Active) AddSpan(parent SpanID, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if a == nil {
		return
	}
	a.append(Span{
		ID:            NewSpanID().String(),
		Parent:        parent.String(),
		Name:          name,
		Kind:          "internal",
		StartUnixNano: start.UnixNano(),
		DurationNS:    int64(d),
		Attrs:         attrs,
	})
}

func (a *Active) append(s Span) {
	a.mu.Lock()
	if !a.finished {
		a.spans = append(a.spans, s)
	}
	a.mu.Unlock()
}

// Finish closes the request and applies the retention policy: keep when
// head-sampled, or when tail conditions promote (explicit Promote, latency
// over SlowLatency, or a status in {shed, deadline, failed}). Call exactly
// once, after every span has ended; later span appends are dropped.
func (a *Active) Finish(status string) {
	if a == nil {
		return
	}
	elapsed := time.Since(a.start)
	a.mu.Lock()
	if a.finished {
		a.mu.Unlock()
		return
	}
	a.finished = true
	spans := a.spans
	promoted := a.promoted
	a.mu.Unlock()

	t := a.tracer
	sampled := ""
	switch {
	case a.headKept:
		sampled = "head"
	case promoted != "":
		sampled = "tail:" + promoted
	case t.cfg.SlowLatency > 0 && elapsed >= t.cfg.SlowLatency:
		sampled = "tail:slow"
	case status == "shed" || status == "deadline" || status == "failed":
		sampled = "tail:" + status
	}
	if sampled == "" {
		t.dropped.Add(1)
		return
	}
	if sampled == "head" {
		t.keptHead.Add(1)
	} else {
		t.keptTail.Add(1)
	}

	root := "unknown"
	rootParent := a.remoteParent.String()
	for i := range spans {
		if spans[i].Parent == rootParent {
			root = spans[i].Name
			break
		}
	}
	tr := &Trace{
		TraceID:       a.id.String(),
		Root:          root,
		Status:        status,
		Sampled:       sampled,
		StartUnixNano: a.start.UnixNano(),
		DurationUS:    elapsed.Microseconds(),
		Spans:         spans,
	}
	idx := t.seq.Add(1) - 1
	t.ring[idx%uint64(len(t.ring))].Store(tr)
}

// SpanHandle is one open span. Not safe for concurrent use; a request's
// concurrent branches each hold their own handle. All methods are nil-safe.
type SpanHandle struct {
	a      *Active
	id     SpanID
	parent SpanID
	name   string
	kind   string
	start  time.Time
	attrs  []Attr
	errMsg string
	ended  bool
}

// ID returns the span's ID (zero on nil) — the parent for child spans.
func (h *SpanHandle) ID() SpanID {
	if h == nil {
		return SpanID{}
	}
	return h.id
}

// SetKind overrides the span kind ("server" at the boundary).
func (h *SpanHandle) SetKind(kind string) {
	if h != nil {
		h.kind = kind
	}
}

// SetAttrs appends attributes.
func (h *SpanHandle) SetAttrs(attrs ...Attr) {
	if h != nil {
		h.attrs = append(h.attrs, attrs...)
	}
}

// SetError marks the span failed.
func (h *SpanHandle) SetError(msg string) {
	if h != nil {
		h.errMsg = msg
	}
}

// End closes the span and appends it to the trace. Idempotent.
func (h *SpanHandle) End() {
	if h == nil || h.ended {
		return
	}
	h.ended = true
	kind := h.kind
	if kind == "" {
		kind = "internal"
	}
	h.a.append(Span{
		ID:            h.id.String(),
		Parent:        h.parent.String(),
		Name:          h.name,
		Kind:          kind,
		StartUnixNano: h.start.UnixNano(),
		DurationNS:    int64(time.Since(h.start)),
		Attrs:         h.attrs,
		Error:         h.errMsg,
	})
}

// SpanNode is one node of the assembled span tree the single-trace endpoint
// serves.
type SpanNode struct {
	Span
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree assembles the trace's spans into parent-child order. Spans whose
// parent is outside the trace (the boundary span's remote parent, or a span
// whose parent was lost) surface as roots. Siblings are ordered by start
// time, ties by recording order.
func (tr *Trace) Tree() []*SpanNode {
	nodes := make(map[string]*SpanNode, len(tr.Spans))
	order := make([]*SpanNode, 0, len(tr.Spans))
	for i := range tr.Spans {
		n := &SpanNode{Span: tr.Spans[i]}
		nodes[n.Span.ID] = n
		order = append(order, n)
	}
	var roots []*SpanNode
	for _, n := range order {
		if p, ok := nodes[n.Span.Parent]; ok && n.Span.Parent != "" {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*SpanNode)
	sortNodes = func(ns []*SpanNode) {
		for i := 1; i < len(ns); i++ { // insertion sort: sibling sets are tiny
			for j := i; j > 0 && ns[j].Span.StartUnixNano < ns[j-1].Span.StartUnixNano; j-- {
				ns[j], ns[j-1] = ns[j-1], ns[j]
			}
		}
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}
