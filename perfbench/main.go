// Command perfbench is the repository's host-time benchmark. It starts
// the real hyperhetd binary on a loopback port, drives one workload as
// a closed loop of rounds from a single client, prints every metric with
// its unit, and then verifies every completed job's report, read back
// from the server's journal, against ground truth it recomputes itself.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries
// and passes -server and -workdir):
//
//	bash perfbench/run.sh --workload detect --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh steady --workload serve --runs 10 --out a.json
//	bash perfbench/run.sh steady --workload serve --runs 10 --against a.json
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones. Diagnostics that are
// not metrics go to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/sched"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets the server up, from exec to the end of a warm-up round, at
// least minSetups times and until setupBudget has passed (at most
// maxSetups times); setup_s is the median.
const (
	minSetups   = 7
	maxSetups   = 25
	setupBudget = 5 * time.Second
)

// metricUnits gives every metric's unit.
var metricUnits = map[string]string{
	"setup_s":          "s",
	"throughput_req_s": "req/s",
	"round_p50_ms":     "ms",
	"round_tail_ms":    "ms",
	"cpu_ms_per_req":   "ms",
	"alloc_mb_per_req": "MB",
	"rss_peak_mb":      "MB",

	"hyperhetd.submit_rtt_p50_ms":   "ms",
	"hyperhetd.poll_rtt_p50_ms":     "ms",
	"guard.admit_us":                "us",
	"sched.queue_wait_p50_ms":       "ms",
	"sched.cache_hit_ratio":         "ratio",
	"sched.journal_records_per_req": "count",
	"sched.journal_kb_per_req":      "KB",
	"sched.journal_append_us":       "us",
	"flow.pipeline_overhead_ms":     "ms",
	"scene.generate_ms":             "ms",
	"scene.digest_ms":               "ms",
	"mpi.messages_per_req":          "count",
	"mpi.mb_per_req":                "MB",
	"balance.chunks_per_req":        "count",
}

func init() {
	for _, alg := range algorithms {
		metricUnits["algo.kernel_ms."+alg] = "ms"
		metricUnits["core.run_cpu_ms."+alg] = "ms"
		metricUnits["mpi.overhead_cpu_ms."+alg] = "ms"
	}
}

const mib = 1 << 20

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: detect, scale-out or serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds (extended until the tail percentile has ten rounds beyond it)")
	flag.IntVar(&o.trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&o.server, "server", "", "prebuilt hyperhetd binary")
	flag.StringVar(&o.workdir, "workdir", "", "directory for journals and scratch files")
	flag.Parse()
	if o.server == "" || o.workdir == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -workdir, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type options struct {
	workload        string
	seed            int64
	seconds, trace  int
	server, workdir string
}

// counts tallies attempted, failed and cache-answered requests per
// request label.
type counts map[string]*[3]int

func (c counts) add(o *outcome) {
	if c[o.req.label] == nil {
		c[o.req.label] = &[3]int{}
	}
	n := c[o.req.label]
	n[0]++
	if !o.ok {
		n[1]++
	}
	var st struct {
		FromCache bool `json:"from_cache"`
	}
	if json.Unmarshal(o.status, &st) == nil && st.FromCache {
		n[2]++
	}
}

func run(o options) (*result, error) {
	w := workloads(o.seed)[o.workload]
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want detect, scale-out or serve)", o.workload)
	}
	bin, err := filepath.Abs(o.server)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cl := newClient()
	defer cl.close()

	// Set-up: exec to the end of one discarded warm-up round, several
	// times; the last server goes on to the measured rounds.
	var setups []float64
	var srv *server
	var warm []*outcome
	setupStart := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startServer(bin, runDir, serverArgs(), cl)
		if err != nil {
			return nil, err
		}
		d := &driver{cl: cl, srv: s, w: w}
		_, outs, err := d.runRound(0)
		if err == nil {
			for _, oc := range outs {
				if !oc.ok {
					err = fmt.Errorf("warm-up %s request failed: %s", oc.req.label, oc.status)
				}
			}
		}
		if err != nil {
			s.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i+1 < minSetups || (i+1 < maxSetups && time.Since(setupStart) < setupBudget) {
			s.stop()
			cl.close()
			continue
		}
		srv, warm = s, outs
		break
	}
	defer srv.stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.waitSettledStats(ctx, cl, schedJobs(warm)); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	alloc0, err := srv.totalAlloc(cl)
	if err != nil {
		return nil, err
	}
	jb0, err := srv.journalBytes()
	if err != nil {
		return nil, err
	}
	var m0 map[string]float64
	if o.trace == 1 {
		if m0, err = srv.scrapeMetrics(cl); err != nil {
			return nil, err
		}
	}
	steal0 := hostSteal()

	// Measured rounds.
	d := &driver{cl: cl, srv: srv, w: w}
	minRounds := minRoundsFor(tailP)
	budget := time.Duration(o.seconds) * time.Second
	var makespans []float64
	var outs []*outcome
	start := time.Now()
	for r := 1; time.Since(start) < budget || len(makespans) < minRounds; r++ {
		mk, ro, err := d.runRound(r)
		if err != nil {
			return nil, err
		}
		makespans = append(makespans, ms(mk))
		outs = append(outs, ro...)
	}
	window := time.Since(start).Seconds()

	// Counters and the journal only after /stats has every settled job.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := srv.waitSettledStats(ctx2, cl, schedJobs(warm)+schedJobs(outs)); err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	alloc1, err := srv.totalAlloc(cl)
	if err != nil {
		return nil, err
	}
	jb1, err := srv.journalBytes()
	if err != nil {
		return nil, err
	}
	var m1 map[string]float64
	if o.trace == 1 {
		if m1, err = srv.scrapeMetrics(cl); err != nil {
			return nil, err
		}
	}
	steal := hostSteal() - steal0
	hwm, err := srv.procStatus("VmHWM")
	if err != nil {
		return nil, err
	}
	nvcsw, _ := srv.procStatus("nonvoluntary_ctxt_switches")
	srv.stop()

	per := counts{}
	failed := 0
	for _, oc := range outs {
		per.add(oc)
		if !oc.ok {
			failed++
		}
	}
	n := float64(len(outs))

	st, err := sched.ReplayJournalState(srv.journalDir)
	if err != nil {
		return nil, fmt.Errorf("replaying the run's journal: %w", err)
	}
	chk, err := verify(w, o.seed, append(append([]*outcome{}, warm...), outs...), st)
	if err != nil {
		return nil, err
	}

	// Every workload is built to run without a failed request, so one
	// makes the run incorrect.
	res := &result{Correct: len(chk.errs) == 0 && failed == 0, Attempted: len(outs), Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: metricUnits[name]} }
	e2e := map[string]float64{
		"setup_s":          median(setups),
		"throughput_req_s": n / window,
		"round_p50_ms":     median(makespans),
		"round_tail_ms":    percentile(makespans, tailP),
		"cpu_ms_per_req":   (cpu1 - cpu0) * 1000 / n,
		"alloc_mb_per_req": (alloc1 - alloc0) / mib / n,
		"rss_peak_mb":      hwm / 1024,
	}
	if o.trace == 0 {
		for k, v := range e2e {
			put(k, v)
		}
	} else {
		layers, err := traceLayers(w, runDir, srv, d, outs, st, m0, m1, jb1-jb0, makespans)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			put(k, v)
		}
	}

	// Diagnostics.
	labels := make([]string, 0, len(per))
	for l := range per {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Fprintf(os.Stderr, "workload %s seed %d trace %d: %d rounds in %.2fs (tail = p%g), %d setups, median %.3fs\n",
		w.name, o.seed, o.trace, len(makespans), window, tailP, len(setups), median(setups))
	for _, l := range labels {
		fmt.Fprintf(os.Stderr, "  requests %-14s attempted %6d failed %d from cache %d\n", l, per[l][0], per[l][1], per[l][2])
	}
	fmt.Fprintf(os.Stderr, "  host steal %.2fs over the window; server nonvoluntary_ctxt_switches %.0f\n", steal, nvcsw)
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  e2e %-18s %.4f %s\n", k, e2e[k], metricUnits[k])
	}
	checks := make([]string, 0, len(chk.checks))
	for k, v := range chk.checks {
		checks = append(checks, fmt.Sprintf("%s x%d", k, v))
	}
	sort.Strings(checks)
	for _, c := range checks {
		fmt.Fprintf(os.Stderr, "  check passed: %s\n", c)
	}
	for _, e := range chk.errs {
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: %s\n", e)
	}
	return res, nil
}

// schedJobs counts the scheduler jobs behind a set of outcomes: one per
// accepted job submission plus one per analyze stage of each pipeline.
func schedJobs(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		switch {
		case o.req.kind == kindJob && o.id != "":
			n++
		case o.req.kind == kindPipeline && o.id != "":
			var ps pipeStatus
			if json.Unmarshal(o.status, &ps) == nil {
				for _, s := range ps.Stages {
					if s.JobID != "" {
						n++
					}
				}
			}
		}
	}
	return n
}

// traceLayers computes the per-layer metrics of a traced run: client
// round trips, counter deltas and journal growth from the HTTP phase,
// then the in-process timings.
func traceLayers(w *workload, runDir string, srv *server, d *driver, outs []*outcome,
	st *sched.JournalState, m0, m1 map[string]float64, journalGrowth float64, makespans []float64) (map[string]float64, error) {
	n := float64(len(outs))
	delta := func(name string) float64 { return m1[name] - m0[name] }
	out := map[string]float64{
		"hyperhetd.submit_rtt_p50_ms":   median(d.submitRTT),
		"hyperhetd.poll_rtt_p50_ms":     median(d.pollRTT),
		"sched.journal_records_per_req": delta("hyperhet_sched_journal_records_total") / n,
		"sched.journal_kb_per_req":      journalGrowth / 1024 / n,
		"mpi.messages_per_req":          delta("hyperhet_mpi_messages_total") / n,
		"mpi.mb_per_req":                delta("hyperhet_mpi_bytes_total") / mib / n,
	}
	hits := delta(`hyperhet_sched_cache_requests_total{result="hit"}`)
	if lookups := delta("hyperhet_sched_cache_requests_total"); lookups > 0 {
		out["sched.cache_hit_ratio"] = hits / lookups
	} else {
		out["sched.cache_hit_ratio"] = 0
	}

	reports := map[string]*core.RunReport{}
	for _, j := range st.Jobs {
		reports[j.ID] = j.Report
	}
	var waits, overheads []float64
	var keys []string
	chunks := 0
	net, err := w.platform()
	if err != nil {
		return nil, err
	}
	for _, oc := range outs {
		switch oc.req.kind {
		case kindJob:
			if q, ok := queueWait(oc.status); ok {
				waits = append(waits, q)
			}
			if rep := reports[oc.id]; rep != nil {
				chunks += rep.BalanceChunks
			}
			keys = append(keys, net.Name+"|")
		case kindPipeline:
			v, err := pipelineOverhead(oc.status)
			if err != nil {
				return nil, err
			}
			overheads = append(overheads, v)
			keys = append(keys, net.Name+"|", net.Name+"|")
		}
	}
	out["sched.queue_wait_p50_ms"] = median(waits)
	out["flow.pipeline_overhead_ms"] = median(overheads)
	out["balance.chunks_per_req"] = float64(chunks) / n
	out["guard.admit_us"] = guardLayer(keys, time.Duration(median(makespans)*float64(time.Millisecond)))

	appendUS, err := journalLayer(filepath.Join(srv.journalDir, "journal.wal"), runDir)
	if err != nil {
		return nil, fmt.Errorf("journal layer: %w", err)
	}
	out["sched.journal_append_us"] = appendUS

	// The workload's scene configurations: its one scene, or for serve
	// the first few rounds' fresh scenes.
	var cfgs []scene.Config
	for r := 1; r <= 4; r++ {
		for _, rq := range w.round(r) {
			if rq.kind == kindJob && (w.name != "serve" || rq.label == "fresh") && !slices.Contains(cfgs, rq.scene) {
				cfgs = append(cfgs, rq.scene)
			}
		}
	}
	gen, dig, cube, err := sceneLayer(cfgs)
	if err != nil {
		return nil, fmt.Errorf("scene layer: %w", err)
	}
	out["scene.generate_ms"] = gen
	out["scene.digest_ms"] = dig
	if err := kernelLayer(w, cfgs[0], cube, out); err != nil {
		return nil, fmt.Errorf("kernel layer: %w", err)
	}
	return out, nil
}
