package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewIDUniqueLowercaseHex(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := NewID()
		s := id.String()
		if len(s) != 32 {
			t.Fatalf("trace ID %q: len %d, want 32", s, len(s))
		}
		if seen[s] {
			t.Fatalf("duplicate trace ID %q after %d mints", s, i)
		}
		seen[s] = true
		if _, err := ParseID(s); err != nil {
			t.Fatalf("round-trip ParseID(%q): %v", s, err)
		}
		sp := NewSpanID()
		if sp.IsZero() || len(sp.String()) != 16 {
			t.Fatalf("span ID %q invalid", sp.String())
		}
	}
}

func TestParseIDRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"abc",
		"00000000000000000000000000000000",  // all-zero
		"4BF92F3577B34DA6A3CE929D0E0E4736",  // uppercase
		"4bf92f3577b34da6a3ce929d0e0e473g",  // non-hex
		"4bf92f3577b34da6a3ce929d0e0e47361", // 33 chars
	} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted, want error", bad)
		}
	}
}

func TestHeadSamplingDeterministicAndProportional(t *testing.T) {
	tr := New(Config{HeadRate: 0.5, SlowLatency: -1})
	kept := 0
	const n = 20000
	for i := 0; i < n; i++ {
		id := NewID()
		k1, k2 := tr.headKeep(id), tr.headKeep(id)
		if k1 != k2 {
			t.Fatalf("head decision not deterministic for %s", id)
		}
		if k1 {
			kept++
		}
	}
	frac := float64(kept) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("HeadRate 0.5 kept %.3f of traces, want ~0.5", frac)
	}

	all := New(Config{HeadRate: 1})
	none := New(Config{HeadRate: 0})
	for i := 0; i < 100; i++ {
		id := NewID()
		if !all.headKeep(id) {
			t.Fatal("HeadRate 1 dropped a trace")
		}
		if none.headKeep(id) {
			t.Fatal("HeadRate 0 kept a trace")
		}
	}
}

func TestTailPromotionKeepsSlowShedFailed(t *testing.T) {
	tr := New(Config{HeadRate: 0, SlowLatency: 10 * time.Millisecond})

	// Fast, ok → dropped.
	a := tr.StartRequest(TraceParent{})
	a.StartSpan(SpanID{}, "GET /topk").End()
	a.Finish("ok")
	if got := tr.Get(a.TraceIDString()); got != nil {
		t.Fatalf("fast ok trace kept: %+v", got)
	}

	// Shed / deadline / failed → kept regardless of latency.
	for _, status := range []string{"shed", "deadline", "failed"} {
		a := tr.StartRequest(TraceParent{})
		a.StartSpan(SpanID{}, "GET /topk").End()
		a.Finish(status)
		got := tr.Get(a.TraceIDString())
		if got == nil {
			t.Fatalf("status %q trace dropped, want tail-kept", status)
		}
		if got.Sampled != "tail:"+status {
			t.Fatalf("status %q: Sampled = %q, want tail:%s", status, got.Sampled, status)
		}
	}

	// Slow ok → kept as tail:slow.
	slow := New(Config{HeadRate: 0, SlowLatency: time.Nanosecond})
	a = slow.StartRequest(TraceParent{})
	time.Sleep(time.Millisecond)
	a.Finish("ok")
	got := slow.Get(a.TraceIDString())
	if got == nil || got.Sampled != "tail:slow" {
		t.Fatalf("slow trace: got %+v, want Sampled tail:slow", got)
	}

	// Explicit promotion wins over latency.
	a = slow.StartRequest(TraceParent{})
	a.Promote("visited")
	time.Sleep(time.Millisecond)
	a.Finish("ok")
	got = slow.Get(a.TraceIDString())
	if got == nil || got.Sampled != "tail:visited" {
		t.Fatalf("promoted trace: got %+v, want Sampled tail:visited", got)
	}

	st := slow.Stats()
	if st.KeptTail != 2 || st.Started != 2 {
		t.Fatalf("stats = %+v, want Started 2, KeptTail 2", st)
	}
}

func TestRingLapsAndLastNewestFirst(t *testing.T) {
	tr := New(Config{HeadRate: 1, Ring: 4})
	var ids []string
	for i := 0; i < 10; i++ {
		a := tr.StartRequest(TraceParent{})
		a.StartSpan(SpanID{}, "q").End()
		a.Finish("ok")
		ids = append(ids, a.TraceIDString())
	}
	last := tr.Last(0)
	if len(last) != 4 {
		t.Fatalf("Last(0) = %d traces, want 4 (ring size)", len(last))
	}
	for i, tr := range last {
		want := ids[len(ids)-1-i]
		if tr.TraceID != want {
			t.Fatalf("Last[%d] = %s, want %s (newest first)", i, tr.TraceID, want)
		}
	}
	if tr.Get(ids[0]) != nil {
		t.Fatal("lapped trace still retrievable")
	}
	if got := tr.Get(ids[9]); got == nil {
		t.Fatal("newest trace not retrievable")
	}
	if n := len(tr.Last(2)); n != 2 {
		t.Fatalf("Last(2) = %d traces, want 2", n)
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := New(Config{HeadRate: 1})
	a := tr.StartRequest(TraceParent{})
	root := a.StartSpan(SpanID{}, "GET /topk")
	root.SetKind("server")
	child1 := a.StartSpan(root.ID(), "qserve.queue.wait")
	child1.End()
	expandStart := time.Now()
	child2 := a.StartSpan(root.ID(), "qserve.execute", Int("k", 10))
	grand := a.StartSpan(child2.ID(), "solver.solve")
	grand.End()
	child2.End()
	a.AddSpan(child2.ID(), "solver.expand", expandStart, time.Microsecond, Bool("aggregate", true))
	root.End()
	a.Finish("ok")

	got := tr.Get(a.TraceIDString())
	if got == nil {
		t.Fatal("trace not kept")
	}
	if got.Root != "GET /topk" {
		t.Fatalf("Root = %q, want GET /topk", got.Root)
	}
	roots := got.Tree()
	if len(roots) != 1 || roots[0].Span.Name != "GET /topk" {
		t.Fatalf("tree roots = %+v, want single GET /topk", roots)
	}
	if roots[0].Span.Kind != "server" {
		t.Fatalf("root kind = %q, want server", roots[0].Span.Kind)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(roots[0].Children))
	}
	var exec *SpanNode
	for _, c := range roots[0].Children {
		if c.Span.Name == "qserve.execute" {
			exec = c
		}
	}
	if exec == nil || len(exec.Children) != 2 {
		t.Fatalf("qserve.execute children wrong: %+v", exec)
	}
	names := map[string]bool{}
	for _, c := range exec.Children {
		names[c.Span.Name] = true
	}
	if !names["solver.solve"] || !names["solver.expand"] {
		t.Fatalf("execute children = %v, want solver.solve + solver.expand", names)
	}
}

func TestRemoteParentAdoptedAndSampledForcesKeep(t *testing.T) {
	tr := New(Config{HeadRate: 0, SlowLatency: -1})
	parent, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	a := tr.StartRequest(parent)
	if a.TraceIDString() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID not adopted: %s", a.TraceIDString())
	}
	if !a.HeadSampled() {
		t.Fatal("inbound sampled flag did not force head retention")
	}
	root := a.StartSpan(a.RemoteParent(), "GET /topk")
	root.End()
	a.Finish("ok")
	got := tr.Get(a.TraceIDString())
	if got == nil || got.Sampled != "head" {
		t.Fatalf("sampled inbound trace: got %+v, want kept head", got)
	}
	// The boundary span's parent is the remote span; Tree surfaces it as root.
	roots := got.Tree()
	if len(roots) != 1 || roots[0].Span.Parent != "00f067aa0ba902b7" {
		t.Fatalf("boundary span parent = %+v, want remote 00f067aa0ba902b7", roots)
	}

	// Unsampled inbound context: ID adopted, head verdict from hash (rate 0 → drop).
	parent.Sampled = false
	a = tr.StartRequest(parent)
	if a.HeadSampled() {
		t.Fatal("unsampled inbound forced head retention")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	a := tr.StartRequest(TraceParent{})
	if a != nil {
		t.Fatal("nil tracer minted an Active")
	}
	// Every method must be a no-op on nil.
	a.Promote("x")
	a.Finish("ok")
	a.AddSpan(SpanID{}, "s", time.Now(), 0)
	if a.TraceIDString() != "" || !a.TraceID().IsZero() {
		t.Fatal("nil Active has a trace ID")
	}
	h := a.StartSpan(SpanID{}, "s")
	if h != nil {
		t.Fatal("nil Active minted a span")
	}
	h.SetAttrs(Int("k", 1))
	h.SetError("x")
	h.SetKind("server")
	h.End()
	if !h.ID().IsZero() {
		t.Fatal("nil span has an ID")
	}
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("nil tracer stats = %+v", st)
	}

	ctx := context.Background()
	if got := NewContext(ctx, nil, SpanID{}); got != ctx {
		t.Fatal("NewContext(nil) layered the context")
	}
	ctx2, h2 := StartSpan(ctx, "s")
	if ctx2 != ctx || h2 != nil {
		t.Fatal("StartSpan on untraced context not a no-op")
	}
	ga, gs := FromContext(ctx)
	if ga != nil || !gs.IsZero() {
		t.Fatal("FromContext on empty context non-zero")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New(Config{HeadRate: 1})
	a := tr.StartRequest(TraceParent{})
	root := a.StartSpan(SpanID{}, "root")
	ctx := NewContext(context.Background(), a, root.ID())

	ctx2, child := StartSpan(ctx, "child", Str("q", "7"))
	if child == nil {
		t.Fatal("StartSpan returned nil on traced context")
	}
	ga, gs := FromContext(ctx2)
	if ga != a || gs != child.ID() {
		t.Fatal("child span not current in derived context")
	}
	_, grand := StartSpan(ctx2, "grand")
	grand.End()
	child.End()
	root.End()
	a.Finish("ok")

	got := tr.Get(a.TraceIDString())
	roots := got.Tree()
	if len(roots) != 1 || len(roots[0].Children) != 1 || len(roots[0].Children[0].Children) != 1 {
		t.Fatalf("context-propagated tree wrong: %+v", roots)
	}
	if roots[0].Children[0].Children[0].Span.Name != "grand" {
		t.Fatal("grandchild not nested under child")
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	tr := New(Config{HeadRate: 1})
	a := tr.StartRequest(TraceParent{})
	root := a.StartSpan(SpanID{}, "batch")
	var wg sync.WaitGroup
	const slots = 32
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := a.StartSpan(root.ID(), "slot", Int("slot", int64(i)))
			h.End()
		}(i)
	}
	wg.Wait()
	root.End()
	a.Finish("ok")
	got := tr.Get(a.TraceIDString())
	if got == nil || len(got.Spans) != slots+1 {
		t.Fatalf("concurrent recording lost spans: got %d, want %d", len(got.Spans), slots+1)
	}
	roots := got.Tree()
	if len(roots) != 1 || len(roots[0].Children) != slots {
		t.Fatalf("batch tree wrong: %d roots, %d children", len(roots), len(roots[0].Children))
	}
}

func TestFinishIdempotentAndLateSpansDropped(t *testing.T) {
	tr := New(Config{HeadRate: 1, Ring: 8})
	a := tr.StartRequest(TraceParent{})
	a.StartSpan(SpanID{}, "q").End()
	a.Finish("ok")
	a.Finish("failed") // second Finish must not double-publish or re-verdict
	a.StartSpan(SpanID{}, "late").End()
	got := tr.Get(a.TraceIDString())
	if got.Status != "ok" || len(got.Spans) != 1 {
		t.Fatalf("post-Finish mutation visible: %+v", got)
	}
	if st := tr.Stats(); st.KeptHead != 1 {
		t.Fatalf("double Finish double-counted: %+v", st)
	}
}

func TestTraceparentStringRoundTrip(t *testing.T) {
	tp := TraceParent{Trace: NewID(), Span: NewSpanID(), Sampled: true}
	s := tp.String()
	if !strings.HasPrefix(s, "00-") || !strings.HasSuffix(s, "-01") {
		t.Fatalf("wire form %q", s)
	}
	got, err := ParseTraceparent(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != tp {
		t.Fatalf("round trip: got %+v, want %+v", got, tp)
	}
}
