package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"flos/internal/diskgraph"
	"flos/internal/graph"
)

// repoRoot walks up from the working directory to the module root, so the
// suite runs the same from `go run ./bench` (cwd = root) and `go test`
// (cwd = bench/).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module flos\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("module root (go.mod of module flos) not found above the working directory")
		}
		dir = parent
	}
}

// buildFlosd compiles the shipped ./cmd/flosd into outDir and returns the
// binary's path. The Go build cache makes repeat builds a no-op link check.
func buildFlosd(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "flosd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/flosd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/flosd: %v\n%s", err, out)
	}
	return bin, nil
}

// flosd is one running server subprocess.
type flosd struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	args    []string
	stderr  string // path of the captured stderr (access log included)
	errFile *os.File
	// waitExit is closed once the process has been reaped.
	waitExit chan struct{}
}

// setupTimes splits one set-up into the phases setup_s is made of.
type setupTimes struct {
	GenS, WriteS, LoadS float64
}

func (t setupTimes) total() float64 { return t.GenS + t.WriteS + t.LoadS }

// setup performs one full set-up of a workload: generate the graph, write
// the file flosd serves, start flosd with its shipped default flags and wait
// until /healthz answers. dir receives the graph file and the stderr log.
func setup(sp *spec, sz sizes, bin, dir string) (*graph.MemGraph, *flosd, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	g, err := sp.graph(sz)
	if err != nil {
		return nil, nil, st, fmt.Errorf("generate graph: %w", err)
	}
	st.GenS = time.Since(t0).Seconds()

	t0 = time.Now()
	var args []string
	if sp.backend == backendStore {
		path := filepath.Join(dir, "graph.flos")
		if err := diskgraph.Create(path, g, sp.pageSize); err != nil {
			return nil, nil, st, fmt.Errorf("write store: %w", err)
		}
		args = []string{"-store", path, "-pagecache", strconv.Itoa(sp.pageCacheMiB)}
	} else {
		path := filepath.Join(dir, "graph.bin")
		if err := graph.SaveBinary(path, g); err != nil {
			return nil, nil, st, fmt.Errorf("write graph: %w", err)
		}
		args = []string{"-bin", path}
		if sp.backend == backendLive {
			args = append(args, "-live")
		}
	}
	st.WriteS = time.Since(t0).Seconds()

	t0 = time.Now()
	srv, err := startFlosd(bin, dir, args)
	if err != nil {
		return nil, nil, st, err
	}
	st.LoadS = time.Since(t0).Seconds()
	return g, srv, st, nil
}

// startFlosd launches flosd on a free loopback port and waits for /healthz.
func startFlosd(bin, dir string, args []string) (*flosd, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	errPath := filepath.Join(dir, "flosd.stderr")
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	args = append(args, "-addr", addr)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = errFile
	if err := cmd.Start(); err != nil {
		errFile.Close()
		return nil, fmt.Errorf("start flosd: %w", err)
	}
	srv := &flosd{cmd: cmd, base: "http://" + addr, args: append([]string{"flosd"}, args...), stderr: errPath, errFile: errFile}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // reaped here; stop() waits on exited
		close(exited)
	}()
	srv.waitExit = exited
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			srv.stop()
			tail, _ := os.ReadFile(errPath)
			return nil, fmt.Errorf("flosd exited during start-up:\n%s", tail)
		default:
		}
		resp, err := http.Get(srv.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.stop()
	return nil, errors.New("flosd did not answer /healthz within 30s")
}

// stop kills the server and waits until the process has ended. Calling it
// again is harmless.
func (s *flosd) stop() {
	_ = s.cmd.Process.Kill()
	<-s.waitExit
	s.errFile.Close()
}

// procStatusMB reads one kB field of the server process's /proc status
// (VmRSS, VmHWM), in MiB.
func (s *flosd) procStatusMB(field string) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not found in /proc status", field)
}

// serverMetrics is the subset of flosd's /metrics?format=json the suite
// reads; field names are the server's.
type serverMetrics struct {
	QueriesShed    int64 `json:"queries_shed"`
	QueriesOK      int64 `json:"queries_ok"`
	Iterations     int64 `json:"engine_iterations"`
	VisitedNodes   int64 `json:"engine_visited_nodes"`
	Sweeps         int64 `json:"engine_sweeps"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	Live           *struct {
		SnapshotsAlive        int64 `json:"snapshots_alive"`
		RowsCoWed             int64 `json:"rows_cowed"`
		OpsApplied            int64 `json:"ops_applied"`
		InvalidationsSurgical int64 `json:"invalidations_surgical"`
		CacheRetained         int64 `json:"cache_retained"`
		RecertifyHits         int64 `json:"recertify_hits"`
	} `json:"live"`
	Runtime struct {
		HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		NumGC          uint32 `json:"num_gc"`
	} `json:"runtime"`
	Disk *struct {
		PageHits      int64 `json:"page_hits"`
		PageFaults    int64 `json:"page_faults"`
		FaultsDeduped int64 `json:"faults_deduped"`
		Evictions     int64 `json:"evictions"`
	} `json:"disk"`
}

// scrape reads the server's JSON metrics snapshot.
func (s *flosd) scrape() (*serverMetrics, error) {
	resp, err := http.Get(s.base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return &m, nil
}
