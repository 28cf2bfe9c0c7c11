package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"flos/internal/measure"
)

// pastDeadline is a context whose deadline has passed while Err is still
// nil: the state of a context whose timer has not fired yet.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestDeadlineReadOffTheClock: a search stops at a passed deadline even
// when the context has not reported it, with ErrDeadline in every mode but
// anytime, which answers uncertified instead.
func TestDeadlineReadOffTheClock(t *testing.T) {
	g := randomConnected(t, 200, 600, 5)
	ctx := pastDeadline{context.Background()}
	for _, kind := range []measure.Kind{measure.PHP, measure.RWR, measure.THT} {
		_, err := TopKCtx(ctx, g, 0, testOptions(kind, 5))
		var in *Interrupted
		if !errors.As(err, &in) || !errors.Is(err, ErrDeadline) || in.Partial.Iterations != 0 {
			t.Fatalf("%v: err %v, want ErrDeadline before the first iteration", kind, err)
		}
	}
	if _, err := UnifiedTopKCtx(ctx, g, 0, testOptions(measure.PHP, 5)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("unified: err %v, want ErrDeadline", err)
	}
	opt := testOptions(measure.RWR, 5)
	opt.Mode = ModeAnytime
	res, err := TopKCtx(ctx, g, 0, opt)
	if err != nil || res.Certification.Certified {
		t.Fatalf("anytime: err %v, certified %v; want an uncertified answer", err, res != nil && res.Certification.Certified)
	}
}
