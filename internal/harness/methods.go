package harness

import (
	"context"
	"errors"
	"time"

	"flos/internal/baseline"
	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/measure"
)

// Answer is one query's outcome as a figure reads it: the returned nodes,
// closest first, how many nodes the method touched, and whether the answer
// itself certified that it is the exact top-k.
type Answer struct {
	Nodes   []graph.NodeID
	Visited int
	Exact   bool
}

// Method is one competitor in a figure: a named query runner plus the
// offline cost paid at registry construction (clustering, factorization,
// embedding; zero for methods without one).
type Method struct {
	Name           string
	PrecomputeTime time.Duration
	Run            func(g graph.Graph, q graph.NodeID, k int) (Answer, error)
}

// method is the one adapter from a baseline's query call to a Method: the
// Answer is read from the result's own fields, so a method reports the
// exactness each answer certified, not a label.
func method(name string, call func(g graph.Graph, q graph.NodeID, k int) (*baseline.Result, error)) Method {
	return Method{Name: name, Run: func(g graph.Graph, q graph.NodeID, k int) (Answer, error) {
		r, err := call(g, q, k)
		if err != nil {
			return Answer{}, err
		}
		return Answer{measure.Nodes(r.TopK), r.Visited, r.Exact}, nil
	}}
}

// since records the offline cost paid since start on m.
func since(start time.Time, m Method) Method {
	m.PrecomputeTime = time.Since(start)
	return m
}

// MethodConfig tunes the registries.
type MethodConfig struct {
	Params measure.Params
	// DNEBudget is DNE's fixed visited-node budget (paper: 4000).
	DNEBudget int
	// ClusterSize is the LS_* cluster target size (paper's clusters hold a
	// few thousand nodes).
	ClusterSize int
	// KDashMaxNodes gates the K-dash precompute: beyond this size the paper
	// itself could not run it; 0 disables the gate.
	KDashMaxNodes int
	// EmbedDims / EmbedMaxNodes gate the GE embedding likewise.
	EmbedDims     int
	EmbedMaxNodes int
}

// DefaultMethodConfig mirrors the paper's settings.
func DefaultMethodConfig() MethodConfig {
	return MethodConfig{
		Params:        measure.DefaultParams(),
		DNEBudget:     4000,
		ClusterSize:   4000,
		KDashMaxNodes: 30000,
		EmbedDims:     16,
		EmbedMaxNodes: 400000,
	}
}

// flosMethod is FLoS itself, read from its *core.Result like the baselines.
// It answers every query in one Workspace, as a serving caller would: a
// fresh one per query would charge FLoS an index sized to the graph on
// every call, a dependence on |V| the method does not have. RunSweep runs
// a registry's methods one after another, so no two queries use the
// Workspace at once.
func flosMethod(kind measure.Kind, cfg MethodConfig) Method {
	ws := core.NewWorkspace()
	return Method{Name: "FLoS_" + kind.String(), Run: func(g graph.Graph, q graph.NodeID, k int) (Answer, error) {
		r, err := ws.TopK(context.Background(), g, q, core.Options{K: k, Measure: kind, Params: cfg.Params})
		if err != nil {
			return Answer{}, err
		}
		return Answer{measure.Nodes(r.TopK), r.Visited, r.Exact}, nil
	}}
}

func giMethod(kind measure.Kind, cfg MethodConfig) Method {
	return method("GI_"+kind.String(), func(g graph.Graph, q graph.NodeID, k int) (*baseline.Result, error) {
		return baseline.GlobalIteration(g, q, kind, cfg.Params, k)
	})
}

// clusterMethod is LS_EI / LS_RWR: the clustering precompute runs here.
func clusterMethod(name string, g graph.Graph, kind measure.Kind, cfg MethodConfig) Method {
	start := time.Now()
	cl := baseline.PrecomputeClusters(g, cfg.ClusterSize)
	return since(start, method(name, func(g graph.Graph, q graph.NodeID, k int) (*baseline.Result, error) {
		return cl.Query(g, q, kind, cfg.Params, k)
	}))
}

// PHPMethods builds the Figure 7 / Figure 11 registry: FLoS_PHP, GI_PHP,
// DNE, NN_EI, LS_EI. The LS_EI clustering precompute runs here and its cost
// is recorded on the method.
func PHPMethods(g graph.Graph, cfg MethodConfig) []Method {
	return []Method{
		flosMethod(measure.PHP, cfg),
		giMethod(measure.PHP, cfg),
		method("DNE", func(g graph.Graph, q graph.NodeID, k int) (*baseline.Result, error) {
			return baseline.DNE(g, q, cfg.Params, k, cfg.DNEBudget)
		}),
		method("NN_EI", func(g graph.Graph, q graph.NodeID, k int) (*baseline.Result, error) {
			return baseline.NNEI(g, q, cfg.Params, k)
		}),
		clusterMethod("LS_EI", g, measure.PHP, cfg),
	}
}

// RWRMethods builds the Figure 8 / Figure 12 registry: FLoS_RWR, GI_RWR,
// Castanet, LS_RWR, plus K-dash and GE_RWR where their precomputes are
// feasible at this graph size (the paper could only run those two on its
// medium graphs).
func RWRMethods(g graph.Graph, cfg MethodConfig) []Method {
	methods := []Method{
		flosMethod(measure.RWR, cfg),
		giMethod(measure.RWR, cfg),
		method("Castanet", func(g graph.Graph, q graph.NodeID, k int) (*baseline.Result, error) {
			return baseline.Castanet(g, q, cfg.Params, k)
		}),
		clusterMethod("LS_RWR", g, measure.RWR, cfg),
	}
	if cfg.KDashMaxNodes == 0 || g.NumNodes() <= cfg.KDashMaxNodes {
		start := time.Now()
		kd, err := baseline.PrecomputeKDash(g, cfg.Params.C, 0)
		// Infeasibility is expected and simply drops the method, as in the
		// paper; a structural failure surfaces on every query.
		if !errors.Is(err, baseline.ErrPrecomputeInfeasible) {
			methods = append(methods, since(start, method("K-dash", func(_ graph.Graph, q graph.NodeID, k int) (*baseline.Result, error) {
				if err != nil {
					return nil, err
				}
				return kd.Query(q, k)
			})))
		}
	}
	if cfg.EmbedMaxNodes == 0 || g.NumNodes() <= cfg.EmbedMaxNodes {
		start := time.Now()
		if emb, err := baseline.PrecomputeEmbedding(g, cfg.Params, cfg.EmbedDims); err == nil {
			methods = append(methods, since(start, method("GE_RWR", func(_ graph.Graph, q graph.NodeID, k int) (*baseline.Result, error) {
				return emb.Query(q, k)
			})))
		}
	}
	return methods
}

// THTMethods builds the Figure 10 registry: FLoS_THT, GI_THT, LS_THT, plus
// the Monte Carlo sampler (the other estimator of [17], not in the paper's
// Table 5 but the natural third contrast).
func THTMethods(_ graph.Graph, cfg MethodConfig) []Method {
	return []Method{
		flosMethod(measure.THT, cfg),
		giMethod(measure.THT, cfg),
		method("LS_THT", func(g graph.Graph, q graph.NodeID, k int) (*baseline.Result, error) {
			return baseline.LSTHT(g, q, cfg.Params, k, cfg.DNEBudget, 0.05)
		}),
		method("MC_THT", func(g graph.Graph, q graph.NodeID, k int) (*baseline.Result, error) {
			return baseline.MCTHT(g, q, cfg.Params, k, 128, 7)
		}),
	}
}
