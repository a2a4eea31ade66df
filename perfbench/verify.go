package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/linalg"
	"repro/internal/scene"
	"repro/internal/sched"
)

// Tolerances of the output checks. Every check recomputes its reference
// in float64 with this file's own code from the scene generator's cube
// and ground truth; none compares against a stored copy of a result.
const (
	// hotSpotSAD is the largest spectral angle (radians) between a hot
	// spot's planted pixel and the nearest ATDCA target for the spot to
	// count as found.
	hotSpotSAD = 0.02
	// ospRelTol accepts an ATDCA pick whose orthogonal-projection
	// residual is within this share of the best pixel's (a near-tie).
	ospRelTol = 1e-6
	// fclsRelTol accepts a UFCLS pick whose FCLS error is within this
	// share of the worst sampled pixel's; it also bounds the gap between
	// this file's NNLS and the program's reported score. The two solvers
	// stop at different active-set tolerances.
	fclsRelTol = 1e-3
	// sadTieTol accepts a MORPH label whose SAD is within this many
	// radians of the nearest endmember's.
	sadTieTol = 1e-9
	// synthTol bounds the gap between a pipeline's synthesis score and
	// the hot-spot SAD recomputed here.
	synthTol = 1e-9
	// ufclsSample is the number of seeded pixels the UFCLS check unmixes.
	ufclsSample = 256
	// serveDeepRounds is the number of seeded serve rounds whose jobs get
	// the full ATDCA/UFCLS argmax checks; every round gets the rest.
	serveDeepRounds = 8
)

// checker collects verification failures.
type checker struct {
	errs   []string
	scenes map[scene.Config]*scene.Scene
	rng    *rand.Rand
	// checks counts checks passed, by name, for the diagnostics.
	checks map[string]int
}

func (c *checker) failf(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) pass(name string) { c.checks[name]++ }

func (c *checker) scene(cfg scene.Config) *scene.Scene {
	if sc, ok := c.scenes[cfg]; ok {
		return sc
	}
	sc, err := scene.Generate(cfg)
	if err != nil {
		c.failf("regenerating scene %+v: %v", cfg, err)
		return nil
	}
	c.scenes[cfg] = sc
	return sc
}

// pipeStatus is the part of a journaled pipeline status the checks read.
type pipeStatus struct {
	Stages []struct {
		Name      string `json:"name"`
		Kind      string `json:"kind"`
		JobID     string `json:"job_id"`
		Synthesis *struct {
			Detection map[string]map[string]float64 `json:"detection"`
		} `json:"synthesis"`
	} `json:"stages"`
}

// verify reads every completed request's report back from the run's
// journal and checks it. outs holds the warm-up and measured rounds of
// the server that wrote the journal.
func verify(w *workload, seed int64, outs []*outcome, st *sched.JournalState) (*checker, error) {
	c := &checker{scenes: map[scene.Config]*scene.Scene{}, rng: rand.New(rand.NewSource(seed)), checks: map[string]int{}}
	if st == nil {
		return nil, fmt.Errorf("no journal written")
	}
	jobs := map[string]*sched.JournalJob{}
	for _, j := range st.Jobs {
		jobs[j.ID] = j
	}
	pipes := map[string]*sched.JournalPipeline{}
	for _, p := range st.Pipelines {
		pipes[p.ID] = p
	}
	report := func(id string) *core.RunReport {
		j := jobs[id]
		if j == nil || !j.Finished || j.State != sched.StateCompleted || j.Report == nil {
			c.failf("job %s: no completed report in the journal", id)
			return nil
		}
		return j.Report
	}

	lastRound := 0
	for _, o := range outs {
		lastRound = max(lastRound, o.round)
	}
	deep := map[int]bool{}
	for len(deep) < serveDeepRounds && len(deep) <= lastRound {
		deep[c.rng.Intn(lastRound+1)] = true
	}

	refs := map[string]*core.RunReport{}            // first report per label
	byRound := map[int]map[string]*core.RunReport{} // reports by round and label
	for _, o := range outs {
		if !o.ok {
			continue
		}
		switch o.req.kind {
		case kindJob:
			rep := report(o.id)
			if rep == nil {
				continue
			}
			if byRound[o.round] == nil {
				byRound[o.round] = map[string]*core.RunReport{}
			}
			byRound[o.round][o.req.key()] = rep
			if w.name == "serve" {
				if o.req.label == "fresh" && deep[o.round] {
					c.checkDetection(o.req.alg, c.scene(o.req.scene), rep, false)
				}
				continue
			}
			// Rounds of detect and scale-out repeat one input: the first
			// report of each kind gets the full checks, and every later one
			// must equal it.
			if ref, ok := refs[o.req.label]; ok {
				c.same(o.req.label+" repeat of identical input", ref, rep)
				continue
			}
			refs[o.req.label] = rep
			sc := c.scene(o.req.scene)
			switch o.req.alg {
			case "atdca", "ufcls":
				c.checkDetection(o.req.alg, sc, rep, o.req.alg == "atdca")
			case "morph":
				c.checkMorph(sc, rep)
			case "pct":
				c.checkLabels(sc, rep)
			}
		case kindPipeline:
			c.checkPipeline(o, pipes[o.id], deep[o.round])
		}
	}

	for r, reps := range byRound {
		for _, alg := range []string{"pct", "morph"} {
			if a, b := reps[alg+".0"], reps[alg+"-balanced.0"]; a != nil && b != nil {
				c.sameClassification(fmt.Sprintf("round %d %s static vs balanced", r, alg), a, b)
			}
		}
		for key, rep := range reps {
			slot, ok := strings.CutPrefix(key, "repeat.")
			if !ok || r == 0 {
				continue
			}
			if orig := byRound[r-1]["fresh."+slot]; orig != nil {
				c.same(fmt.Sprintf("round %d cache-answered repeat %s", r, slot), orig, rep)
			} else {
				c.failf("round %d repeat %s has no fresh original", r, slot)
			}
		}
	}
	return c, nil
}

// checkDetection checks an ATDCA or UFCLS report against the scene.
func (c *checker) checkDetection(alg string, sc *scene.Scene, rep *core.RunReport, hotSpots bool) {
	if sc == nil {
		return
	}
	if rep.Detection == nil || len(rep.Detection.Targets) == 0 {
		c.failf("%s: report has no targets", alg)
		return
	}
	tg := rep.Detection.Targets
	for i, t := range tg {
		if t.Line < 0 || t.Line >= sc.Cube.Lines || t.Sample < 0 || t.Sample >= sc.Cube.Samples ||
			!slices.Equal(t.Signature, sc.Cube.Pixel(t.Line, t.Sample)) {
			c.failf("%s target %d at (%d,%d) is not the scene pixel there", alg, i, t.Line, t.Sample)
			return
		}
	}
	if hotSpots {
		for _, h := range sc.Truth.HotSpots {
			truth := sc.Cube.Pixel(h.Line, h.Sample)
			best := math.Inf(1)
			for _, t := range tg {
				best = math.Min(best, sad(t.Signature, truth))
			}
			if best > hotSpotSAD {
				c.failf("atdca missed hot spot %s: nearest target SAD %.4f > %.4f", h.Label, best, hotSpotSAD)
			}
		}
		c.pass("atdca hot spots A-G found")
	}
	if alg == "atdca" {
		c.checkOSP(sc.Cube, tg)
	} else {
		c.checkFCLS(sc.Cube, tg)
	}
}

// checkOSP confirms each ATDCA target maximises the orthogonal-projection
// residual ||y||^2 - sum_k (q_k . y)^2 against an orthonormal basis q of
// the targets before it (the brightest pixel for the first).
func (c *checker) checkOSP(f *cube.Cube, tg []algo.Target) {
	var basis [][]float64
	resid := func(y []float32) float64 {
		var n float64
		for _, v := range y {
			n += float64(v) * float64(v)
		}
		for _, q := range basis {
			d := dot32(q, y)
			n -= d * d
		}
		return n
	}
	for k, t := range tg {
		picked := resid(f.Pixel(t.Line, t.Sample))
		best := 0.0
		for p := 0; p < f.NumPixels(); p++ {
			best = math.Max(best, resid(f.PixelAt(p)))
		}
		if picked < best*(1-ospRelTol) {
			c.failf("atdca round %d picked residual %.9g below the scene's best %.9g", k, picked, best)
			return
		}
		if k > 0 && math.Abs(picked-t.Score) > ospRelTol*best+1e-12 {
			c.failf("atdca round %d reports score %.9g, residual recomputed %.9g", k, t.Score, picked)
			return
		}
		basis = appendOrthonormal(basis, t.Signature)
	}
	c.pass("atdca targets maximise the OSP residual")
}

// checkFCLS confirms each UFCLS target has the largest fully constrained
// unmixing error, against the targets before it, of a seeded pixel
// sample (the first target is the brightest pixel).
func (c *checker) checkFCLS(f *cube.Cube, tg []algo.Target) {
	np := f.NumPixels()
	bright := 0.0
	for p := 0; p < np; p++ {
		bright = math.Max(bright, norm2(f.PixelAt(p)))
	}
	if first := norm2(tg[0].Signature); first < bright*(1-ospRelTol) {
		c.failf("ufcls first target brightness %.9g below the scene's brightest %.9g", first, bright)
		return
	}
	sample := c.rng.Perm(np)[:min(ufclsSample, np)]
	for k := 1; k < len(tg); k++ {
		ends := make([][]float64, k)
		for i := range ends {
			ends[i] = f64(tg[i].Signature)
		}
		u := newUnmixer(ends)
		picked := u.err(f64(tg[k].Signature))
		if math.Abs(picked-tg[k].Score) > fclsRelTol*picked+1e-9 {
			c.failf("ufcls round %d reports error %.9g, recomputed %.9g", k, tg[k].Score, picked)
			return
		}
		for _, p := range sample {
			if e := u.err(f64(f.PixelAt(p))); e > picked*(1+fclsRelTol)+1e-9 {
				l, s := f.Coord(p)
				c.failf("ufcls round %d: pixel (%d,%d) error %.9g exceeds the pick's %.9g", k, l, s, e, picked)
				return
			}
		}
	}
	c.pass("ufcls targets have the largest sampled FCLS error")
}

// checkMorph confirms every pixel's label is its nearest endmember by SAD.
func (c *checker) checkMorph(sc *scene.Scene, rep *core.RunReport) {
	if !c.checkLabels(sc, rep) {
		return
	}
	cl := rep.Classification
	for p := 0; p < sc.Cube.NumPixels(); p++ {
		y := sc.Cube.PixelAt(p)
		best := math.Inf(1)
		for _, e := range cl.Classes {
			best = math.Min(best, sad(y, e))
		}
		if got := sad(y, cl.Classes[cl.Labels[p]]); got > best+sadTieTol {
			l, s := sc.Cube.Coord(p)
			c.failf("morph pixel (%d,%d) labelled %d at SAD %.9g; nearest endmember is at %.9g", l, s, cl.Labels[p], got, best)
			return
		}
	}
	c.pass("morph labels are the nearest endmember by SAD")
}

// checkLabels checks a classification covers the scene with valid labels.
func (c *checker) checkLabels(sc *scene.Scene, rep *core.RunReport) bool {
	if sc == nil {
		return false
	}
	cl := rep.Classification
	if cl == nil || len(cl.Classes) == 0 || len(cl.Labels) != sc.Cube.NumPixels() {
		c.failf("classification report does not cover the scene")
		return false
	}
	for p, l := range cl.Labels {
		if l < 0 || l >= len(cl.Classes) {
			c.failf("pixel %d has label %d of %d classes", p, l, len(cl.Classes))
			return false
		}
	}
	c.pass("classification labels cover the scene")
	return true
}

// checkPipeline checks a pipeline's synthesis against hot-spot SADs
// recomputed from its stage reports and the scene's ground truth.
func (c *checker) checkPipeline(o *outcome, jp *sched.JournalPipeline, deep bool) {
	if jp == nil || !jp.Finished || jp.State != "completed" {
		c.failf("pipeline %s: no completed story in the journal", o.id)
		return
	}
	var ps pipeStatus
	if err := json.Unmarshal(jp.Status, &ps); err != nil {
		c.failf("pipeline %s: unreadable status: %v", o.id, err)
		return
	}
	sc := c.scene(o.req.scene)
	if sc == nil {
		return
	}
	// Stage jobs journal nothing of their own: the pipeline's stage
	// records carry their reports.
	reps := map[string]*core.RunReport{}
	var synth map[string]map[string]float64
	for _, stg := range ps.Stages {
		switch stg.Kind {
		case "analyze":
			var rec struct {
				JobID  string          `json:"job_id"`
				Report *core.RunReport `json:"report"`
			}
			if err := json.Unmarshal(jp.Stages[stg.Name], &rec); err != nil || rec.JobID != stg.JobID {
				c.failf("pipeline %s: stage %s record unreadable or for another job", o.id, stg.Name)
				return
			}
			reps[stg.Name] = rec.Report
		case "synthesize":
			if stg.Synthesis != nil {
				synth = stg.Synthesis.Detection
			}
		}
	}
	for _, name := range pipelineStages {
		rep := reps[name]
		if rep == nil || rep.Detection == nil {
			c.failf("pipeline %s: stage %s has no detection report", o.id, name)
			return
		}
		for _, h := range sc.Truth.HotSpots {
			truth := sc.Cube.Pixel(h.Line, h.Sample)
			want := math.Inf(1)
			for _, t := range rep.Detection.Targets {
				want = math.Min(want, sad(t.Signature, truth))
			}
			got, ok := synth[name][h.Label]
			if !ok || math.Abs(got-want) > synthTol {
				c.failf("pipeline %s: synthesis %s/%s = %v, recomputed %.12g", o.id, name, h.Label, got, want)
				return
			}
		}
		if deep {
			c.checkDetection(name, sc, rep, false)
		}
	}
	c.pass("pipeline synthesis matches recomputed hot-spot SADs")
}

// same requires two detection or classification reports to be equal.
func (c *checker) same(what string, a, b *core.RunReport) {
	switch {
	case a.Detection != nil && b.Detection != nil:
		ta, tb := a.Detection.Targets, b.Detection.Targets
		if len(ta) != len(tb) {
			c.failf("%s: %d targets vs %d", what, len(tb), len(ta))
			return
		}
		for i := range ta {
			if ta[i].Line != tb[i].Line || ta[i].Sample != tb[i].Sample || ta[i].Score != tb[i].Score ||
				!slices.Equal(ta[i].Signature, tb[i].Signature) {
				c.failf("%s: target %d differs", what, i)
				return
			}
		}
	case a.Classification != nil && b.Classification != nil:
		c.sameClassification(what, a, b)
		return
	default:
		c.failf("%s: reports of different kinds", what)
		return
	}
	c.pass("identical inputs give identical outputs")
}

func (c *checker) sameClassification(what string, a, b *core.RunReport) {
	ca, cb := a.Classification, b.Classification
	if ca == nil || cb == nil || !slices.Equal(ca.Labels, cb.Labels) ||
		!slices.EqualFunc(ca.Classes, cb.Classes, func(x, y []float32) bool { return slices.Equal(x, y) }) {
		c.failf("%s: classifications differ", what)
		return
	}
	c.pass("classification identical across schedules")
}

// sad is the spectral angle between two signatures, in float64.
func sad(a, b []float32) float64 {
	var ab, aa, bb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		ab += x * y
		aa += x * x
		bb += y * y
	}
	if aa == 0 || bb == 0 {
		return math.Pi / 2
	}
	return math.Acos(math.Max(-1, math.Min(1, ab/math.Sqrt(aa*bb))))
}

func norm2(y []float32) float64 {
	var n float64
	for _, v := range y {
		n += float64(v) * float64(v)
	}
	return n
}

func dot32(q []float64, y []float32) float64 {
	var d float64
	for i, v := range y {
		d += q[i] * float64(v)
	}
	return d
}

func f64(y []float32) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = float64(v)
	}
	return out
}

// appendOrthonormal extends an orthonormal basis by the component of y
// orthogonal to it (Gram-Schmidt applied twice for stability).
func appendOrthonormal(basis [][]float64, y []float32) [][]float64 {
	v := f64(y)
	for pass := 0; pass < 2; pass++ {
		for _, q := range basis {
			var d float64
			for i := range v {
				d += q[i] * v[i]
			}
			for i := range v {
				v[i] -= d * q[i]
			}
		}
	}
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	if n == 0 {
		return basis
	}
	for i := range v {
		v[i] /= n
	}
	return append(basis, v)
}

// unmixer computes fully constrained least-squares unmixing errors
// against fixed endmembers: NNLS (Lawson-Hanson, on the normal
// equations) of the system augmented with a sum-to-one row weighted by
// the standard delta, the formulation UFCLS scores pixels with.
type unmixer struct {
	ends [][]float64
	gram [][]float64 // E^T E + delta^2 11^T
}

func newUnmixer(ends [][]float64) *unmixer {
	k := len(ends)
	d2 := linalg.FCLSDelta * linalg.FCLSDelta
	g := make([][]float64, k)
	for i := range g {
		g[i] = make([]float64, k)
		for j := range g[i] {
			var s float64
			for b := range ends[i] {
				s += ends[i][b] * ends[j][b]
			}
			g[i][j] = s + d2
		}
	}
	return &unmixer{ends: ends, gram: g}
}

// err returns ||E a - y||^2 for the FCLS abundances a of pixel y.
func (u *unmixer) err(y []float64) float64 {
	k := len(u.ends)
	d2 := linalg.FCLSDelta * linalg.FCLSDelta
	atb := make([]float64, k)
	for i, e := range u.ends {
		var s float64
		for b := range e {
			s += e[b] * y[b]
		}
		atb[i] = s + d2
	}
	a := nnlsGram(u.gram, atb)
	var e float64
	for b := range y {
		r := -y[b]
		for i := range u.ends {
			r += a[i] * u.ends[i][b]
		}
		e += r * r
	}
	return e
}

// nnlsGram solves min ||Ax - b|| subject to x >= 0 given G = A^T A and
// h = A^T b, by the Lawson-Hanson active-set method.
func nnlsGram(g [][]float64, h []float64) []float64 {
	n := len(h)
	x := make([]float64, n)
	passive := make([]bool, n)
	grad := func() []float64 {
		w := make([]float64, n)
		for j := range w {
			w[j] = h[j]
			for i := range x {
				w[j] -= g[j][i] * x[i]
			}
		}
		return w
	}
	scale := 0.0
	for _, v := range h {
		scale = math.Max(scale, math.Abs(v))
	}
	tol := 1e-12 * math.Max(scale, 1)
	for iter := 0; iter < 3*n+10; iter++ {
		w := grad()
		j, best := -1, tol
		for i := range w {
			if !passive[i] && w[i] > best {
				j, best = i, w[i]
			}
		}
		if j < 0 {
			break
		}
		passive[j] = true
		for inner := 0; inner < 3*n+10; inner++ {
			z := solvePassive(g, h, passive)
			if z == nil {
				passive[j] = false
				return x
			}
			// Step from x towards z until the first passive variable hits
			// zero; that one (and any other at zero) leaves the set.
			stop, alpha := -1, 1.0
			for i := range z {
				if passive[i] && z[i] <= 0 {
					a := 0.0
					if d := x[i] - z[i]; d > 0 {
						a = x[i] / d
					}
					if stop < 0 || a < alpha {
						stop, alpha = i, a
					}
				}
			}
			if stop < 0 {
				copy(x, z)
				break
			}
			for i := range x {
				x[i] += alpha * (z[i] - x[i])
				if passive[i] && (i == stop || x[i] <= 0) {
					passive[i] = false
					x[i] = 0
				}
			}
		}
	}
	return x
}

// solvePassive solves the normal equations restricted to the passive
// set by Gaussian elimination with partial pivoting; nil if singular.
func solvePassive(g [][]float64, h []float64, passive []bool) []float64 {
	var idx []int
	for i, p := range passive {
		if p {
			idx = append(idx, i)
		}
	}
	k := len(idx)
	m := make([][]float64, k)
	for r, i := range idx {
		m[r] = make([]float64, k+1)
		for c, j := range idx {
			m[r][c] = g[i][j]
		}
		m[r][k] = h[i]
	}
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if m[piv][col] == 0 {
			return nil
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < k; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= k; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	z := make([]float64, len(passive))
	for r := k - 1; r >= 0; r-- {
		s := m[r][k]
		for c := r + 1; c < k; c++ {
			s -= m[r][c] * z[idx[c]]
		}
		z[idx[r]] = s / m[r][r]
	}
	return z
}
