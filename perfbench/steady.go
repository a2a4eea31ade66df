package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is one set of runs of one workload, as saved with -out.
type runSet struct {
	Workload string    `json:"workload"`
	Seeds    []int64   `json:"seeds"`
	Runs     []*result `json:"runs"`
}

// steadyMain runs a workload N times with consecutive seeds and prints
// each end-to-end metric's median, quartiles and quartile spread against
// its bound in BENCHMARK.json; with -against it also compares this set's
// medians with a saved set's, and the two sets' failed shares.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "runs in the set")
	seed0 := fs.Int64("seed0", 1, "seed of the first run; later runs count up")
	out := fs.String("out", "", "save the set of runs to this file")
	against := fs.String("against", "", "compare medians with a set saved by -out")
	server := fs.String("server", "", "prebuilt hyperhetd binary")
	workdir := fs.String("workdir", "", "directory for journals and scratch files")
	fs.Parse(args)

	var bs benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &bs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: reading BENCHMARK.json: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 1
	}

	set := runSet{Workload: *workload}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		cmd := exec.Command(self, "-server", *server, "-workdir", *workdir, "-workload", *workload,
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(bs.RunSeconds), "-trace", "0")
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "steady: run with seed %d: %v\n", seed, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "steady: run with seed %d printed no result: %v\n", seed, err)
			return 1
		}
		set.Seeds = append(set.Seeds, seed)
		set.Runs = append(set.Runs, &res)
	}
	if *out != "" {
		b, _ := json.MarshalIndent(set, "", "  ")
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "steady: %v\n", err)
			return 1
		}
	}

	var base *runSet
	if *against != "" {
		base = &runSet{}
		b, err := os.ReadFile(*against)
		if err == nil {
			err = json.Unmarshal(b, base)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "steady: reading %s: %v\n", *against, err)
			return 2
		}
	}
	if !report(bs, &set, base) {
		return 1
	}
	return 0
}

func values(set *runSet, name string) []float64 {
	var vs []float64
	for _, r := range set.Runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func failedShare(set *runSet) (int, int) {
	a, f := 0, 0
	for _, r := range set.Runs {
		a += r.Attempted
		f += r.Failed
	}
	return f, a
}

// report prints the set's table and returns false when a spread exceeds
// its bound, a run was incorrect or had a failed request, or, against a
// base set, a median got worse by more than its bound or the failed
// shares differ.
func report(bs benchSpec, set, base *runSet) bool {
	ok := true
	for i, r := range set.Runs {
		if !r.Correct {
			fmt.Printf("run with seed %d failed its output checks\n", set.Seeds[i])
			ok = false
		}
	}
	fmt.Printf("workload %s, %d runs, seeds %v\n", set.Workload, len(set.Runs), set.Seeds)
	fmt.Printf("%-18s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	specs := bs.EndToEnd
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	for _, m := range specs {
		vs := values(set, m.Name)
		if len(vs) != len(set.Runs) {
			fmt.Printf("%-18s missing from %d runs\n", m.Name, len(set.Runs)-len(vs))
			ok = false
			continue
		}
		q1, q2, q3 := quartiles(vs)
		spread := (q3 - q1) / q2
		verdict := "steady (< bound/3)"
		switch {
		case spread > m.Bound:
			verdict = "TOO WIDE"
			ok = false
		case spread > m.Bound/3:
			verdict = "within bound"
		}
		if base != nil {
			bv := values(base, m.Name)
			_, bmed, _ := quartiles(bv)
			worse := (q2 - bmed) / bmed
			if m.Better == "higher" {
				worse = -worse
			}
			v := "ok"
			if worse > m.Bound {
				v = "WORSE"
				ok = false
			}
			verdict += fmt.Sprintf("; vs base median %.6g: %+.1f%% worse, %s", bmed, 100*worse, v)
		}
		fmt.Printf("%-18s %12.6g %12.6g %12.6g %7.1f%% %5.0f%%  %s\n", m.Name, q1, q2, q3, 100*spread, 100*m.Bound, verdict)
	}
	f, a := failedShare(set)
	fmt.Printf("failed %d of %d requests\n", f, a)
	if f > 0 {
		ok = false
	}
	if base != nil {
		bf, ba := failedShare(base)
		// Compare f/a with bf/ba exactly, in integers.
		if f*ba != bf*a {
			fmt.Printf("FAILED SHARE DIFFERS: %d/%d vs base %d/%d\n", f, a, bf, ba)
			ok = false
		}
	}
	return ok
}
