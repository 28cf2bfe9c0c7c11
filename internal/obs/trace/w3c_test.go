package trace

import (
	"testing"
)

func TestParseTraceparentValid(t *testing.T) {
	got, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace = %s", got.Trace)
	}
	if got.Span.String() != "00f067aa0ba902b7" {
		t.Fatalf("span = %s", got.Span)
	}
	if !got.Sampled {
		t.Fatal("sampled flag not read")
	}

	// Flags 00 → unsampled; other flag bits ignored.
	for flags, want := range map[string]bool{"00": false, "01": true, "02": false, "03": true, "ff": true} {
		got, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-" + flags)
		if err != nil {
			t.Fatalf("flags %s: %v", flags, err)
		}
		if got.Sampled != want {
			t.Fatalf("flags %s: sampled = %v, want %v", flags, got.Sampled, want)
		}
	}

	// Future version with extra fields: accepted with 00 semantics.
	if _, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	cases := []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // v00 with 5 fields
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // invalid version
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // non-hex version
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // 1-char version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",   // uppercase span
		"00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01",    // short trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b-01",    // short span
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1",    // 1-char flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",   // non-hex flags
	}
	for _, bad := range cases {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", bad)
		}
	}
}

// TestTraceparentRoundTrip: the header the server writes back (String)
// parses to the same trace, span and sampled flag.
func TestTraceparentRoundTrip(t *testing.T) {
	for _, sampled := range []bool{true, false} {
		tp := TraceParent{Trace: NewID(), Span: NewSpanID(), Sampled: sampled}
		flags := "-00"
		if sampled {
			flags = "-01"
		}
		if got, want := tp.String(), "00-"+tp.Trace.String()+"-"+tp.Span.String()+flags; got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		parsed, err := ParseTraceparent(tp.String())
		if err != nil {
			t.Fatalf("written header does not parse: %v", err)
		}
		if parsed != tp {
			t.Fatalf("round trip %+v, want %+v", parsed, tp)
		}
	}
}
