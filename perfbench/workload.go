package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/scene"
)

// Request kinds a round can hold.
const (
	kindJob      = "job"      // POST /submit, polled at /jobs/{id}
	kindPipeline = "pipeline" // POST /pipelines, polled at /pipelines/{id}
	kindList     = "list"     // GET /jobs, settled by its response
)

// request is one request of a round plus what verification needs to know
// about it.
type request struct {
	kind string
	// label names the request's role in its workload ("atdca",
	// "pct-balanced", "fresh", "repeat", ...) for per-kind diagnostics.
	label string
	body  []byte // POST body; nil for a listing
	path  string // GET path of a listing

	alg     string       // job algorithm (jobs only)
	balance bool         // job ran demand-driven
	scene   scene.Config // job or pipeline scene
	// slot tells apart requests of one label within a round.
	slot int
}

// key names a request uniquely within its round.
func (rq request) key() string { return fmt.Sprintf("%s.%d", rq.label, rq.slot) }

// workload is one traffic mix: the fixed make-up of each round, built
// from the run's seed.
type workload struct {
	name string
	// round builds the requests of round r; round 0 is the discarded
	// warm-up.
	round func(r int) []request
	// network and cpus name the platform the jobs run on, for the
	// in-process half of the traced run.
	network string
	cpus    int
}

// Scene geometry of each workload. The detect scene keeps the WTC
// accuracy scene's 64 bands and hot-spot layout at a quarter of its
// 144x96 pixels, so a round of one ATDCA and one UFCLS job takes about
// 0.3 s on two cores and a run holds enough rounds for a tail
// percentile. The scale-out scene keeps the Thunderhead geometry's 32
// bands at 256 simulated CPUs with 2 lines per rank.
var (
	detectGeom   = scene.Config{Lines: 72, Samples: 48, Bands: 64}
	scaleOutGeom = scene.Config{Lines: 512, Samples: 16, Bands: 32}
	serveGeom    = scene.Config{Lines: 32, Samples: 32, Bands: 16}
)

const scaleOutCPUs = 256

// tailP is the round-makespan percentile reported as round_tail_ms; a
// run keeps going past its time budget until it has ten rounds beyond
// it.
const tailP = 80.0

// pollInterval is the client's pause between polls of a round's first
// unsettled request.
const pollInterval = 5 * time.Millisecond

// serveGroups is how many groups of fresh job, cached repeat, pipeline
// and listing make one serve round. One group settles in about 50 ms,
// where a few late wake-ups on a vCPU the hypervisor took move the round
// by a large share; six keep the mix and average within the round.
const serveGroups = 6

// wtcSeed is the paper scenes' base seed (the WTC collection date).
const wtcSeed = 20010916

// serverArgs are the hyperhetd flags of every workload besides the
// journal and pprof ones: a worker pool of two, or fewer on a smaller
// machine, never more than nproc. Serve runs without -shed: with several
// groups in flight the AIMD guard sheds submissions, and a shed that
// comes and goes with host load would change the failed share from run
// to run.
func serverArgs() []string {
	return []string{"-workers", strconv.Itoa(min(2, runtime.NumCPU()))}
}

func workloads(seed int64) map[string]*workload {
	if seed < 0 {
		seed = -seed
	}
	detectScene := detectGeom
	detectScene.Seed = wtcSeed + seed
	scaleScene := scaleOutGeom
	scaleScene.Seed = wtcSeed + seed
	// Serve scenes advance one seed per fresh job; pipelines draw from a
	// disjoint range so they never share a scene (or a cached result)
	// with the round's jobs.
	serveBase := 1 + (seed%10000)*100000
	serveScene := func(s int64) scene.Config { c := serveGeom; c.Seed = s; return c }
	const pipelineOffset = 50000

	return map[string]*workload{
		"detect": {
			name:    "detect",
			network: "fully-het",
			round: func(int) []request {
				return []request{
					jobRequest("atdca", "atdca", "fully-het", 0, false, true, detectScene),
					jobRequest("ufcls", "ufcls", "fully-het", 0, false, true, detectScene),
				}
			},
		},
		"scale-out": {
			name:    "scale-out",
			network: "thunderhead",
			cpus:    scaleOutCPUs,
			round: func(int) []request {
				var rs []request
				for _, alg := range []string{"pct", "morph"} {
					rs = append(rs,
						jobRequest(alg, alg, "thunderhead", scaleOutCPUs, false, true, scaleScene),
						jobRequest(alg+"-balanced", alg, "thunderhead", scaleOutCPUs, true, true, scaleScene))
				}
				return rs
			},
		},
		"serve": {
			name:    "serve",
			network: "fully-het",
			round: func(r int) []request {
				var rs []request
				for i := 0; i < serveGroups; i++ {
					seed := serveBase + int64(serveGroups*r+i)
					fresh := jobRequest("fresh", "atdca", "fully-het", 0, false, false, serveScene(seed))
					// The previous round's fresh job of this slot, answered
					// by the result cache.
					repeat := jobRequest("repeat", "atdca", "fully-het", 0, false, false, serveScene(seed-serveGroups))
					pipe := pipelineRequest(serveScene(seed + pipelineOffset))
					list := request{kind: kindList, label: "list", path: "/jobs?limit=20"}
					fresh.slot, repeat.slot, pipe.slot, list.slot = i, i, i, i
					rs = append(rs, fresh, repeat, pipe, list)
				}
				return rs
			},
		},
	}
}

func jobRequest(label, alg, network string, cpus int, balance, noCache bool, sc scene.Config) request {
	doc := map[string]any{
		"algorithm": alg,
		"network":   network,
		"scaled":    true,
		"scene":     sceneDoc(sc),
	}
	if cpus > 0 {
		doc["cpus"] = cpus
	}
	if balance {
		doc["balance"] = true
	}
	if noCache {
		doc["no_cache"] = true
	}
	return request{kind: kindJob, label: label, body: mustJSON(doc), alg: alg, balance: balance, scene: sc}
}

// pipelineStages are the analyze stages of a serve pipeline, by stage
// name and algorithm.
var pipelineStages = []string{"atdca", "ufcls"}

func pipelineRequest(sc scene.Config) request {
	stages := []any{map[string]any{"name": "scene", "kind": "scene", "scene": sceneDoc(sc)}}
	for _, alg := range pipelineStages {
		stages = append(stages, map[string]any{
			"name": alg, "kind": "analyze", "after": []string{"scene"},
			"job": map[string]any{"algorithm": alg, "network": "fully-het", "scaled": true},
		})
	}
	stages = append(stages, map[string]any{"name": "report", "kind": "synthesize", "after": pipelineStages})
	doc := map[string]any{"name": "serve", "stages": stages}
	return request{kind: kindPipeline, label: "pipeline", body: mustJSON(doc), scene: sc}
}

func sceneDoc(sc scene.Config) map[string]any {
	return map[string]any{"lines": sc.Lines, "samples": sc.Samples, "bands": sc.Bands, "seed": sc.Seed}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding a request: %v", err))
	}
	return b
}
