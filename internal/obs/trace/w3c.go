package trace

import (
	"fmt"
	"strings"
)

// Header is the W3C Trace Context header name.
const Header = "traceparent"

// TraceParent is a parsed W3C traceparent value: the trace being continued,
// the caller's span (the parent of our boundary span), and the caller's
// sampling decision.
type TraceParent struct {
	Trace   ID
	Span    SpanID
	Sampled bool
}

// IsZero reports an unset TraceParent (no inbound context).
func (tp TraceParent) IsZero() bool { return tp.Trace.IsZero() }

// String renders the version-00 wire form
// "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>".
func (tp TraceParent) String() string {
	flags := "00"
	if tp.Sampled {
		flags = "01"
	}
	span := tp.Span
	if span.IsZero() {
		// The spec forbids a zero parent-id on the wire; this only happens if
		// a caller builds a TraceParent by hand without a span.
		span = NewSpanID()
	}
	return "00-" + tp.Trace.String() + "-" + span.String() + "-" + flags
}

// ParseTraceparent parses a traceparent header per the W3C Trace Context
// level-1 spec: exactly four dash-separated fields; a 2-hex-digit version
// that must not be "ff" (versions above 00 are accepted and read with 00
// semantics, as the spec requires for forward compatibility, but then the
// value must have at least the 00 layout); lowercase hex IDs; non-zero
// trace-id and parent-id. Only bit 0 of the flags (sampled) is interpreted.
func ParseTraceparent(s string) (TraceParent, error) {
	parts := strings.Split(s, "-")
	if len(parts) < 4 {
		return TraceParent{}, fmt.Errorf("trace: traceparent %q: want 4 fields, got %d", s, len(parts))
	}
	ver := parts[0]
	if len(ver) != 2 {
		return TraceParent{}, fmt.Errorf("trace: traceparent %q: version %q: want 2 hex chars", s, ver)
	}
	var vb [1]byte
	if err := parseLowerHex(vb[:], ver); err != nil {
		return TraceParent{}, fmt.Errorf("trace: traceparent %q: version: %v", s, err)
	}
	if ver == "ff" {
		return TraceParent{}, fmt.Errorf("trace: traceparent %q: version ff is invalid", s)
	}
	if ver == "00" && len(parts) != 4 {
		return TraceParent{}, fmt.Errorf("trace: traceparent %q: version 00 wants exactly 4 fields", s)
	}
	tid, err := ParseID(parts[1])
	if err != nil {
		return TraceParent{}, fmt.Errorf("trace: traceparent %q: %v", s, err)
	}
	sid, err := parseSpanID(parts[2])
	if err != nil {
		return TraceParent{}, fmt.Errorf("trace: traceparent %q: %v", s, err)
	}
	flags := parts[3]
	if len(flags) != 2 {
		return TraceParent{}, fmt.Errorf("trace: traceparent %q: flags %q: want 2 hex chars", s, flags)
	}
	var fb [1]byte
	if err := parseLowerHex(fb[:], flags); err != nil {
		return TraceParent{}, fmt.Errorf("trace: traceparent %q: flags: %v", s, err)
	}
	return TraceParent{Trace: tid, Span: sid, Sampled: fb[0]&0x01 != 0}, nil
}
