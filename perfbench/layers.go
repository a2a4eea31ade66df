package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/algo"
	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/platform"
	"repro/internal/scene"
	"repro/internal/sched"
)

// The in-process half of the traced run drives the workload's inputs
// through the layers' public functions with a timer around each call.
// Nothing inside the program is instrumented.

// algorithms are the four paper algorithms, by request name.
var algorithms = []string{"atdca", "ufcls", "pct", "morph"}

var coreAlg = map[string]core.Algorithm{"atdca": core.ATDCA, "ufcls": core.UFCLS, "pct": core.PCT, "morph": core.MORPH}

// timeIt runs f reps times and returns the median wall and CPU ms.
func timeIt(reps int, f func() error) (wall, cpu float64, err error) {
	var ws, cs []float64
	for i := 0; i < reps; i++ {
		c0, t0 := selfCPU(), time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		ws = append(ws, ms(time.Since(t0)))
		cs = append(cs, ms(selfCPU()-c0))
	}
	return median(ws), median(cs), nil
}

// sceneLayer times scene.Generate and sched.CubeDigest on the workload's
// scene configurations, returning the medians in ms and the first cube.
func sceneLayer(cfgs []scene.Config) (genMS, digestMS float64, first *cube.Cube, err error) {
	var gens, digs []float64
	for _, cfg := range cfgs {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			sc, err := scene.Generate(cfg)
			if err != nil {
				return 0, 0, nil, err
			}
			gens = append(gens, ms(time.Since(t0)))
			t1 := time.Now()
			sched.CubeDigest(sc.Cube)
			digs = append(digs, ms(time.Since(t1)))
			if first == nil {
				first = sc.Cube
			}
		}
	}
	return median(gens), median(digs), first, nil
}

// platform builds the network the workload's jobs run on.
func (w *workload) platform() (*platform.Network, error) {
	if w.network == "thunderhead" {
		return platform.Thunderhead(w.cpus)
	}
	return platform.FullyHeterogeneous(), nil
}

// kernelLayer times each algorithm's sequential entry point and its
// core.RunContext run on the workload's network, both on cube f. The
// mpi overhead is the run's CPU minus the sequential kernel's.
func kernelLayer(w *workload, cfg scene.Config, f *cube.Cube, out map[string]float64) error {
	params := experiments.ScaledParams(core.DefaultParams(), cfg)
	net, err := w.platform()
	if err != nil {
		return err
	}
	// The job kinds the workload submits, per algorithm: static, plus
	// demand-driven where the workload also runs that.
	kinds := map[string][]bool{}
	for _, rq := range w.round(1) {
		if rq.kind == kindJob && !containsBool(kinds[rq.alg], rq.balance) {
			kinds[rq.alg] = append(kinds[rq.alg], rq.balance)
		}
	}
	sequential := map[string]func() error{
		"atdca": func() error { _, err := algo.ATDCASequential(f, params.Targets); return err },
		"ufcls": func() error { _, err := algo.UFCLSSequential(f, params.Targets); return err },
		"pct":   func() error { _, err := algo.PCTSequential(f, params.PCT); return err },
		"morph": func() error { _, err := algo.MorphSequential(f, params.Morph); return err },
	}
	for _, alg := range algorithms {
		wall, kcpu, err := timeIt(3, sequential[alg])
		if err != nil {
			return fmt.Errorf("%s sequential: %w", alg, err)
		}
		ks := kinds[alg]
		if len(ks) == 0 {
			ks = []bool{false}
		}
		var runCPU float64
		for _, bal := range ks {
			ctx := context.Background()
			if bal {
				ctx = core.WithBalance(ctx, balance.DefaultPolicy())
			}
			_, c, err := timeIt(3, func() error {
				_, err := core.RunContext(ctx, net, coreAlg[alg], core.Hetero, f, params)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s run: %w", alg, err)
			}
			runCPU += c / float64(len(ks))
		}
		out["algo.kernel_ms."+alg] = wall
		out["core.run_cpu_ms."+alg] = runCPU
		out["mpi.overhead_cpu_ms."+alg] = runCPU - kcpu
	}
	return nil
}

func containsBool(xs []bool, x bool) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// guardLayer replays the run's scheduler submissions through a guard
// controller configured as hyperhetd's -shed, timing Admit plus the
// dispatch and completion feedback per submission, in microseconds.
func guardLayer(keys []string, latency time.Duration) float64 {
	if len(keys) == 0 {
		return 0
	}
	c := guard.New(guard.Config{})
	const class = guard.Class(0) // batch, the default priority
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		for _, k := range keys {
			v := c.Admit(guard.Request{Class: class, BackendKey: k, InFlight: 1})
			c.ObserveDispatch(class, 0, 0)
			c.ObserveDone(class, k, latency, latency, true, guard.OutcomeBackendOK, v.Probe)
			n++
		}
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(n)
}

// journalLayer re-appends up to 400 of the run's own journal records,
// read raw from its file, to a fresh journal and returns the median
// Append time in microseconds (each append is fsync'd).
func journalLayer(journalFile, tmpDir string) (float64, error) {
	b, err := os.ReadFile(journalFile)
	if err != nil {
		return 0, err
	}
	var recs []sched.Record
	for off := 8; off+8 <= len(b); { // 8-byte file header, then [len][crc][body]
		n := int(binary.LittleEndian.Uint32(b[off:]))
		if off+8+n > len(b) {
			break
		}
		var r sched.Record
		if err := json.Unmarshal(b[off+8:off+8+n], &r); err != nil {
			return 0, fmt.Errorf("decoding journal record: %w", err)
		}
		recs = append(recs, r)
		off += 8 + n
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("journal holds no records")
	}
	dir, err := os.MkdirTemp(tmpDir, "append-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	jl, err := sched.OpenJournal(dir)
	if err != nil {
		return 0, err
	}
	defer jl.Close()
	step := max(1, len(recs)/400)
	var ts []float64
	for i := 0; i < len(recs); i += step {
		t0 := time.Now()
		if err := jl.Append(recs[i]); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(ts), nil
}

// stageTimes is the part of a pipeline status the flow overhead reads.
type stageTimes struct {
	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished"`
	Stages    []struct {
		Name     string    `json:"name"`
		After    []string  `json:"after"`
		Started  time.Time `json:"started"`
		Finished time.Time `json:"finished"`
	} `json:"stages"`
}

// pipelineOverhead is a pipeline's makespan minus the execution time of
// its stages' critical path, in ms.
func pipelineOverhead(status []byte) (float64, error) {
	var p stageTimes
	if err := json.Unmarshal(status, &p); err != nil {
		return 0, err
	}
	done := map[string]float64{} // longest exec path ending at each stage
	for range p.Stages {         // stages may be listed before their deps
		for _, s := range p.Stages {
			path := 0.0
			for _, dep := range s.After {
				path = max(path, done[dep])
			}
			done[s.Name] = path + ms(s.Finished.Sub(s.Started))
		}
	}
	crit := 0.0
	for _, v := range done {
		crit = max(crit, v)
	}
	return ms(p.Finished.Sub(p.Submitted)) - crit, nil
}

// queueWait is a job status's submit-to-start time in ms; false for a
// job that never started (a cache hit).
func queueWait(status []byte) (float64, bool) {
	var st struct {
		Submitted time.Time `json:"submitted"`
		Started   time.Time `json:"started"`
	}
	if json.Unmarshal(status, &st) != nil || st.Started.IsZero() {
		return 0, false
	}
	return ms(st.Started.Sub(st.Submitted)), true
}
