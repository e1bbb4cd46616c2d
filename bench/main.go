// Command bench is the one benchmark for the whole system: four long
// workloads over the public repro.DB surface, nine end-to-end metrics
// with fixed regression bounds, and per-layer attribution obtained from
// outside (timing the bench's own calls, deltas of exported counters,
// the OnEvent / OnTick / DaemonClock seams). See README.md.
//
//	bash bench/run.sh --workload mem-hot --seed 1 --seconds 16 --trace 0   one contract run
//	bash bench/run.sh                                                      all four, untraced then traced
//	bash bench/run.sh -quick                                               the same at 1/50 scale
//	bash bench/run.sh -runs 5 -out a.json                                  five seeds per workload
//	bash bench/run.sh -compare a.json b.json                               noise-aware comparison
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
)

const (
	benchClients    = 2
	defaultSeconds  = 16
	quickScale      = 50
	flushPolicy     = "GroupCommitWindow=0: every write commit forces the WAL (fsync on the file backend); pages are written by eviction, careful-write dependency flushes and Checkpoint"
	fsyncSuspectUs  = 20.0
	fillFloor       = 0.60 // the daemon's default trigger floor, 0.9/(1+0.5)
	residualFlagged = 0.25
)

// fingerprint is printed with every result: where and how it was taken.
type fingerprint struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	FSType       string  `json:"fs_type"`
	DataDir      string  `json:"data_dir"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"tape_seconds"`
	Scale        int     `json:"scale_divisor"`
	Clients      int     `json:"clients"`
	FlushPolicy  string  `json:"flush_policy"`
	SyncProbeUs  float64 `json:"disk_sync_probe_us,omitempty"`
	FsyncSuspect bool    `json:"fsync_suspect"`
}

// commitID is the checkout's commit: run.sh passes it in (the driver's
// checkout is not a git repository, so it may be unknown); a plain
// "go build" inside the repository stamps it into the binary.
func commitID() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// activeDir is the data directory a signal handler must remove.
var activeDir atomic.Pointer[string]

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (mem-hot, file-commit, file-reorg, mem-churn-daemon) and print the contract's result line; empty runs all four")
		seed     = flag.Int64("seed", 1, "tape seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "tape size, in seconds of work at the seed commit's speed")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		quick    = flag.Bool("quick", false, "1/50 scale smoke run: same code paths, same schema, metrics marked quick")
		runs     = flag.Int("runs", 1, "all-workloads mode: runs per workload, seeds seed..seed+runs-1")
		out      = flag.String("out", "", "all-workloads mode: write the result document here")
		spans    = flag.String("spans", "", "traced run: span file (default <dir>/spans-<workload>.json)")
		dataDir  = flag.String("dir", filepath.Join(".bench_build", "data"), "parent of the file-backend data directories")
		compare  = flag.Bool("compare", false, "compare two result documents: -compare base.json new.json")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as spec.go defines it and exit")
		glossary = flag.Bool("glossary", false, "print the metric glossary of README.md as spec.go defines it and exit")
	)
	flag.Parse()

	if *spec {
		b, _ := json.MarshalIndent(benchmarkJSON(), "", "  ")
		fmt.Printf("%s\n", b)
		return
	}

	if *glossary {
		printGlossary(os.Stdout)
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare base.json new.json")
		}
		base, err := readDocument(flag.Arg(0))
		if err != nil {
			fatal(2, "%v", err)
		}
		cur, err := readDocument(flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if compareDocuments(os.Stdout, base, cur) > 0 {
			os.Exit(1)
		}
		return
	}

	if runtime.NumCPU() < benchClients {
		fatal(2, "the benchmark drives %d working threads and refuses to run on %d CPU(s): its latencies would measure the scheduler", benchClients, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(benchClients)
	if *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 1 {
		fatal(2, "-seconds and -runs must be at least 1, -trace 0 or 1")
	}

	// Temp dirs are removed on every exit path, SIGINT and SIGTERM too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if dir := activeDir.Load(); dir != nil {
			_ = os.RemoveAll(*dir)
		}
		os.Exit(130)
	}()

	base := config{seed: *seed, seconds: *seconds, scale: 1, clients: benchClients,
		setups: 3, dataDir: *dataDir}
	if *quick {
		base.scale = quickScale
	}

	if *workload != "" {
		if lookupWorkload(*workload) == nil {
			fatal(2, "unknown workload %q", *workload)
		}
		cfg := base
		cfg.workload, cfg.traced = *workload, *trace == 1
		cfg.spans = spansPath(*spans, cfg)
		line, _, err := runOne(cfg, *quick)
		if line != nil {
			b, _ := json.Marshal(line.resultLine)
			fmt.Printf("%s\n", b)
		}
		if err != nil {
			fatal(1, "%s: %v", *workload, err)
		}
		return
	}

	doc := document{Quick: *quick, Workloads: map[string][]runLine{}}
	failed := false
	for _, wl := range workloads {
		for tr := 0; tr <= 1; tr++ {
			n := *runs
			if tr == 1 {
				n = 1 // per-layer numbers come from one traced run
			}
			for i := 0; i < n; i++ {
				cfg := base
				cfg.workload, cfg.traced, cfg.seed = wl.Name, tr == 1, *seed+int64(i)
				cfg.spans = spansPath(*spans, cfg)
				line, fp, err := runOne(cfg, *quick)
				if line != nil {
					doc.Workloads[wl.Name] = append(doc.Workloads[wl.Name], *line)
					doc.Fingerprint = fp
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
					failed = true
				}
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(1, "write %s: %v", *out, err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(code)
}

func lookupWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func spansPath(flagValue string, cfg config) string {
	if !cfg.traced {
		return ""
	}
	if flagValue != "" {
		return flagValue
	}
	return filepath.Join(filepath.Dir(cfg.dataDir), "spans-"+cfg.workload+".json")
}

// runOne runs one workload once, prints its fingerprint, metric table
// and notes, and returns the result line with the fingerprint. A run
// whose outputs are wrong returns both the line (correct: false) and an
// error.
func runOne(cfg config, quick bool) (*runLine, fingerprint, error) {
	wl := lookupWorkload(cfg.workload)
	fmt.Printf("== %s  seed %d  trace %d  tape %d s / scale 1/%d ==\n   why: %s\n",
		cfg.workload, cfg.seed, b2i(cfg.traced), cfg.seconds, cfg.scale, wl.Why)
	e, res, err := run(cfg)
	if err != nil && !res.verified && res.restart == nil && len(res.setupSeconds) < cfg.setups {
		return nil, fingerprint{}, err // never reached the measured phase
	}

	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitID(), DataDir: cfg.dataDir,
		Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Clients: cfg.clients,
		FlushPolicy: flushPolicy, FSType: "memory"}
	if cfg.workload == wlFileCommit || cfg.workload == wlFileReorg {
		fp.FSType = fsType(cfg.dataDir)
		fp.SyncProbeUs = e.probes.diskSync.quantile(0.5) / 1e3
		fp.FsyncSuspect = fp.SyncProbeUs < fsyncSuspectUs
	}
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("   host: %s\n", fpJSON)

	defs, vals := endToEnd, map[string]float64(nil)
	if res.restart != nil {
		if cfg.traced {
			defs, vals = perLayer, perLayerMetrics(e, res)
		} else {
			vals = endToEndMetrics(e, res)
		}
	}
	line := &runLine{Seed: cfg.seed, Trace: b2i(cfg.traced), Quick: quick, Notes: map[string]any{}}
	line.Attempted, line.Failed = res.rec.attempted, res.rec.failed
	line.Correct = err == nil && res.verified && res.rec.failed == 0
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	line.Metrics = map[string]value{}
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			line.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	printTable(os.Stdout, defs, vals)
	notes(e, res, vals, line.Notes)
	for _, k := range sortedNoteKeys(line.Notes) {
		fmt.Printf("   note: %s = %v\n", k, line.Notes[k])
	}
	for _, f := range e.failures {
		fmt.Printf("   FAILED OP: %s\n", f)
	}
	switch {
	case err != nil:
		return line, fp, err
	case res.rec.failed > 0:
		return line, fp, fmt.Errorf("%d of %d operations failed", res.rec.failed, res.rec.attempted)
	case len(line.Metrics) != len(defs):
		return line, fp, errors.New("a metric was not measured")
	}
	return line, fp, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
