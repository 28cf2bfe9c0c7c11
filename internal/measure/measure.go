// Package measure defines the five random-walk proximity measures the paper
// studies — penalized hitting probability (PHP), effective importance (EI),
// discounted hitting time (DHT), truncated hitting time (THT), and random
// walk with restart (RWR) — together with exact full-graph solvers (the
// "global iteration" reference) and the ranking-equivalence maps of
// Theorems 2 and 6.
//
// The exact solvers are the oracles every local algorithm in this module is
// tested against.
package measure

import (
	"fmt"
	"math"
	"strings"
)

// Kind identifies a proximity measure.
type Kind int

// The measures of the paper's Table 2.
const (
	// PHP is penalized hitting probability [11, 21]: r_q = 1 and
	// r_i = c·Σ_j p_ij·r_j. Higher is closer; no local maximum.
	PHP Kind = iota
	// EI is effective importance [3], degree-normalized RWR:
	// r_i = (1−c)·Σ_j p_ij·r_j for i≠q, r_q = (1−c)·Σ_j p_qj·r_j + c/w_q.
	// Higher is closer; no local maximum; ranking-equivalent to PHP.
	EI
	// DHT is discounted hitting time [18]: r_q = 0 and
	// r_i = 1 + (1−c)·Σ_j p_ij·r_j. Lower is closer; no local minimum;
	// PHP = 1 − c·DHT links it to PHP.
	DHT
	// THT is L-truncated hitting time [17]: r_q = 0 and
	// r_i^L = 1 + Σ_j p_ij·r_j^{L−1}; nodes farther than L hops sit at L.
	// Lower is closer; no local minimum within L hops.
	THT
	// RWR is random walk with restart (personalized PageRank) [20]:
	// r_i = (1−c)·Σ_j p_ji·r_j for i≠q, with restart mass c at q.
	// Higher is closer; HAS local maxima — FLoS reaches it through the
	// degree-scaled PHP relationship of Theorem 6.
	RWR
)

// String returns the paper's abbreviation.
func (k Kind) String() string {
	switch k {
	case PHP:
		return "PHP"
	case EI:
		return "EI"
	case DHT:
		return "DHT"
	case THT:
		return "THT"
	case RWR:
		return "RWR"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses a measure name case-insensitively: php, ei, dht, tht or
// rwr, with ppr (personalized PageRank) accepted for rwr.
func ParseKind(s string) (Kind, error) {
	if strings.EqualFold(s, "ppr") {
		return RWR, nil
	}
	for k := PHP; k <= RWR; k++ {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown measure %q (want php|ei|dht|tht|rwr)", s)
}

// HigherIsCloser reports the ranking direction: true when larger proximity
// means nearer to the query (PHP, EI, RWR), false for hitting times.
func (k Kind) HigherIsCloser() bool {
	switch k {
	case PHP, EI, RWR:
		return true
	default:
		return false
	}
}

// HasLocalOptimum reports whether the measure can have a local optimum
// (paper Table 2). Only RWR does; for it FLoS must route through PHP.
func (k Kind) HasLocalOptimum() bool { return k == RWR }

// Kinds lists every supported measure, in Table 2 order.
func Kinds() []Kind { return []Kind{PHP, EI, DHT, THT, RWR} }

// Params carries the numeric knobs shared by all solvers.
type Params struct {
	// C is the decay factor (PHP, DHT) or restart probability (EI, RWR),
	// 0 < C < 1. The paper's experiments use 0.5.
	C float64
	// L is the THT horizon; the paper uses 10. Ignored by other measures.
	L int
	// Tau is the Jacobi termination threshold of Algorithm 7; the paper
	// uses 1e-5.
	Tau float64
	// MaxIter caps Jacobi sweeps as a divergence backstop.
	MaxIter int
}

// DefaultParams mirrors the paper's experimental settings.
func DefaultParams() Params {
	return Params{C: 0.5, L: 10, Tau: 1e-5, MaxIter: 10000}
}

// Validate rejects out-of-range and non-finite parameters. The float checks
// are written so that NaN fails them (every comparison with NaN is false).
func (p Params) Validate() error {
	if !(p.C > 0 && p.C < 1) {
		return fmt.Errorf("measure: C=%g outside (0,1)", p.C)
	}
	if p.L <= 0 {
		return fmt.Errorf("measure: L=%d must be positive", p.L)
	}
	if !(p.Tau > 0) || math.IsInf(p.Tau, 1) {
		return fmt.Errorf("measure: Tau=%g must be positive and finite", p.Tau)
	}
	if p.MaxIter <= 0 {
		return fmt.Errorf("measure: MaxIter=%d must be positive", p.MaxIter)
	}
	return nil
}
