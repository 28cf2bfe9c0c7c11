package obs

import (
	"sync"
	"time"
)

// sloBucketSec is the SLO ring granularity; sloBuckets spans one hour.
const (
	sloBucketSec = 10
	sloBuckets   = 3600 / sloBucketSec
)

// sloWindows are the reporting windows, in buckets. Multi-window burn rates
// are the standard paging recipe: the short window catches fast burns, the
// long window filters noise.
var sloWindows = []struct {
	name    string
	buckets int64
}{
	{"5m", 5 * 60 / sloBucketSec},
	{"1h", sloBuckets},
}

// SLOConfig declares the service objectives. The zero value selects
// 99.9% availability and 99% of successful queries under 100ms.
type SLOConfig struct {
	// AvailabilityObjective is the target fraction of non-error outcomes,
	// e.g. 0.999; 0 selects 0.999.
	AvailabilityObjective float64
	// LatencyObjective is the target fraction of successful queries at or
	// under LatencyThreshold, e.g. 0.99; 0 selects 0.99.
	LatencyObjective float64
	// LatencyThreshold is the latency SLO boundary; 0 selects 100ms.
	LatencyThreshold time.Duration
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.AvailabilityObjective <= 0 || c.AvailabilityObjective >= 1 {
		c.AvailabilityObjective = 0.999
	}
	if c.LatencyObjective <= 0 || c.LatencyObjective >= 1 {
		c.LatencyObjective = 0.99
	}
	if c.LatencyThreshold <= 0 {
		c.LatencyThreshold = 100 * time.Millisecond
	}
	return c
}

// sloBucket is one 10-second accounting slot. stamp is the absolute bucket
// number (unix seconds / sloBucketSec); a mismatched stamp means the slot
// is stale and is reset before reuse, so the ring needs no sweeper.
type sloBucket struct {
	stamp             int64
	total, errs, slow int64
}

// SLOTracker accounts query outcomes into a rolling ring of 10-second
// buckets and reports availability, latency compliance, and burn rates over
// 5-minute and 1-hour windows. Record takes one short mutexed increment;
// Snapshot walks the ring (rare, scrape-time only).
type SLOTracker struct {
	cfg SLOConfig

	mu      sync.Mutex
	buckets [sloBuckets]sloBucket

	// now is the clock, swappable in tests.
	now func() time.Time
}

// NewSLOTracker builds a tracker with cfg (zero value = defaults).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	return &SLOTracker{cfg: cfg.withDefaults(), now: time.Now}
}

// Record accounts one query outcome: ok=false is an availability error;
// ok=true additionally checks latency against the threshold. Cancellations
// initiated by the client belong in neither bucket — don't Record them.
func (t *SLOTracker) Record(latency time.Duration, ok bool) {
	stamp := t.now().Unix() / sloBucketSec
	b := &t.buckets[stamp%sloBuckets]
	t.mu.Lock()
	if b.stamp != stamp {
		*b = sloBucket{stamp: stamp}
	}
	b.total++
	if !ok {
		b.errs++
	} else if latency > t.cfg.LatencyThreshold {
		b.slow++
	}
	t.mu.Unlock()
}

// SLOWindow is one reporting window's accounting.
type SLOWindow struct {
	// Window names the span ("5m", "1h").
	Window string `json:"window"`
	// Total/Errors/Slow are the raw event counts in the window.
	Total  int64 `json:"total"`
	Errors int64 `json:"errors"`
	Slow   int64 `json:"slow"`
	// Availability is 1 − Errors/Total (1 when idle); LatencyCompliance is
	// the fraction of successful queries at or under the threshold.
	Availability      float64 `json:"availability"`
	LatencyCompliance float64 `json:"latency_compliance"`
	// AvailabilityBurnRate and LatencyBurnRate are the observed error rates
	// divided by the respective error budgets (1 − objective): 1.0 burns
	// the budget exactly at the sustainable rate, higher burns it faster —
	// e.g. 14.4 on the 5m window exhausts a 30-day budget in ~2 days, the
	// classic page-now threshold.
	AvailabilityBurnRate float64 `json:"availability_burn_rate"`
	LatencyBurnRate      float64 `json:"latency_burn_rate"`
}

// SLOSnapshot is the tracker's point-in-time summary.
type SLOSnapshot struct {
	AvailabilityObjective float64     `json:"availability_objective"`
	LatencyObjective      float64     `json:"latency_objective"`
	LatencyThresholdUS    int64       `json:"latency_threshold_us"`
	Windows               []SLOWindow `json:"windows"`
}

// Snapshot sums the live buckets of each window.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	nowStamp := t.now().Unix() / sloBucketSec
	out := SLOSnapshot{
		AvailabilityObjective: t.cfg.AvailabilityObjective,
		LatencyObjective:      t.cfg.LatencyObjective,
		LatencyThresholdUS:    t.cfg.LatencyThreshold.Microseconds(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range sloWindows {
		var win SLOWindow
		win.Window = w.name
		oldest := nowStamp - w.buckets + 1
		for i := range t.buckets {
			b := &t.buckets[i]
			if b.stamp >= oldest && b.stamp <= nowStamp {
				win.Total += b.total
				win.Errors += b.errs
				win.Slow += b.slow
			}
		}
		win.Availability, win.AvailabilityBurnRate =
			compliance(win.Total, win.Errors, t.cfg.AvailabilityObjective)
		win.LatencyCompliance, win.LatencyBurnRate =
			compliance(win.Total-win.Errors, win.Slow, t.cfg.LatencyObjective)
		out.Windows = append(out.Windows, win)
	}
	return out
}

// compliance returns the good fraction and the burn rate (bad-rate divided
// by the error budget) for bad events out of total. An idle window is fully
// compliant and burns nothing.
func compliance(total, bad int64, objective float64) (good, burn float64) {
	if total <= 0 {
		return 1, 0
	}
	badRate := float64(bad) / float64(total)
	return 1 - badRate, badRate / (1 - objective)
}
