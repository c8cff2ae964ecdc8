package main

// exec-sweep runs the stencil executor the tuner configures: Runner.Run and
// CompileFused/FusedProgram.Run over a fixed case list, one call per case in
// each round, so a burst of host noise spreads across all cases instead of
// landing on one. Each round also times a STREAM triad at every case's
// working-set size, the bandwidth yardstick of the roofline fractions.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/grid"
	"repro/internal/tunespace"
)

const (
	smallN = 40   // star7_l2: 2 grids × 42³ × 8 B = 1.2 MB, inside a 2 MiB per-core L2
	bigN   = 128  // star7_big: 2 grids × 130³ × 8 B = 35 MB, far beyond L2
	boxN   = 1024 // box9_2d: 2 grids × 1026² × 8 B = 17 MB
	genN   = 96   // generic: 2 grids × 98³ × 8 B = 15 MB
	// vectorSeed draws each case's tuning vector. It is fixed, not the run's
	// seed: predefined vectors differ up to tenfold in speed, so a per-seed
	// draw would make the spread across seeds measure the draw, not the host.
	vectorSeed = 1
)

// execCase is one timed executor call.
type execCase struct {
	name   string
	points float64 // grid points updated per call, times steps
	bytes  float64 // computed bytes per call: input read once, output written once
	ws     int     // working set in bytes: input and output grids with halos
	run    func() error
	check  func() error
	durs   []time.Duration
}

// caseVector draws case i's vector from the predefined set, among vectors
// at least 32 wide in x (a tuner never picks narrower tiles for these
// sizes).
func caseVector(dims, i int) tunespace.Vector {
	rng := rand.New(rand.NewSource(vectorSeed + int64(i)))
	pre := tunespace.NewSpace(dims).Predefined()
	for {
		if v := pre[rng.Intn(len(pre))]; v.Bx >= 32 {
			return v
		}
	}
}

func fill[T grid.Float](rng *rand.Rand, g *grid.Grid[T]) *grid.Grid[T] {
	d := g.Data()
	for i := range d {
		d[i] = T(2*rng.Float64() - 1)
	}
	return g
}

func newGrid[T grid.Float](rng *rand.Rand, k *exec.LinearKernel, nx, ny, nz int) (in, out *grid.Grid[T]) {
	h, hz := k.MaxOffset(), k.MaxOffset()
	if nz == 1 {
		hz = 0
	}
	return fill(rng, grid.NewOf[T](nx, ny, nz, h, hz)), grid.NewOf[T](nx, ny, nz, h, hz)
}

func runCase[T grid.Float](name string, r *exec.Runner[T], k *exec.LinearKernel, in, out *grid.Grid[T], tv tunespace.Vector) (*execCase, error) {
	ins := []*grid.Grid[T]{in}
	if _, err := r.Compile(k, out, ins, tv); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	n := float64(out.NX * out.NY * out.NZ)
	run := func() error { return r.Run(k, out, ins, tv) }
	return &execCase{
		name: name, points: n, bytes: 2 * n * float64(out.ElemBytes()), ws: 2 * len(in.Data()) * in.ElemBytes(),
		run: run,
		check: func() error {
			if err := run(); err != nil {
				return err
			}
			return checkStencil(k, ins, out)
		},
	}, nil
}

// fusedCase advances tv.K steps per call; its check requires the result to
// equal tv.K sequential Run steps with periodic halos bit for bit.
func fusedCase[T grid.Float](name string, r *exec.Runner[T], k *exec.LinearKernel, in, out *grid.Grid[T], tv tunespace.Vector) (*execCase, error) {
	fp, err := r.CompileFused(k, out, in, tv)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	n := float64(out.NX * out.NY * out.NZ)
	run := func() error { return fp.Run(out, in) }
	return &execCase{
		name: name, points: n * float64(fp.Steps()), bytes: 2 * n * float64(out.ElemBytes()),
		ws: 2 * len(in.Data()) * in.ElemBytes(), run: run,
		check: func() error {
			if err := run(); err != nil {
				return err
			}
			cur, nxt := in.Clone(), out.Clone()
			for s := 0; s < fp.Steps(); s++ {
				refreshPeriodic(cur)
				if err := r.Run(k, nxt, []*grid.Grid[T]{cur}, tv); err != nil {
					return err
				}
				cur, nxt = nxt, cur
			}
			if err := checkSameBits(out, cur); err != nil {
				return fmt.Errorf("%s: %d fused steps differ from sequential steps: %w", name, fp.Steps(), err)
			}
			if fp.Steps() == 1 {
				return checkStencil(k, []*grid.Grid[T]{in}, out)
			}
			return nil
		},
	}, nil
}

type execEnv struct {
	cases   []*execCase
	compile time.Duration
	close   func()
}

// setupExec allocates and fills the grids from the seed and compiles every
// case: what a user pays before the first step.
func setupExec(seed int64) (*execEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	r64, r32 := exec.NewRunner(), exec.NewRunnerOf[float32]()
	env := &execEnv{close: func() { r64.Close(); r32.Close() }}
	lap, edge, lap6 := exec.LaplacianExec(), exec.EdgeExec(), exec.Laplacian6Exec()

	smallIn, smallOut := newGrid[float64](rng, lap, smallN, smallN, smallN)
	bigIn, bigOut := newGrid[float64](rng, lap, bigN, bigN, bigN)
	refreshPeriodic(bigIn) // fused execution reads periodic halos
	big32In, big32Out := newGrid[float32](rng, lap, bigN, bigN, bigN)
	boxIn, boxOut := newGrid[float64](rng, edge, boxN, boxN, 1)
	genIn, genOut := newGrid[float64](rng, lap6, genN, genN, genN)
	fused := caseVector(3, 3)

	start := time.Now()
	var errs []error
	add := func(c *execCase, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		env.cases = append(env.cases, c)
	}
	add(runCase("star7_l2", r64, lap, smallIn, smallOut, caseVector(3, 0)))
	add(runCase("star7_big", r64, lap, bigIn, bigOut, caseVector(3, 1)))
	add(runCase("star7_big_f32", r32, lap, big32In, big32Out, caseVector(3, 2)))
	fused.K = 1
	add(fusedCase("fused_k1", r64, lap, bigIn, bigOut, fused))
	fused.K = 4
	add(fusedCase("fused_k4", r64, lap, bigIn, bigOut, fused))
	add(runCase("box9_2d", r64, edge, boxIn, boxOut, caseVector(2, 5)))
	add(runCase("generic", r64, lap6, genIn, genOut, caseVector(3, 6)))
	env.compile = time.Since(start)
	if len(errs) > 0 {
		env.close()
		return nil, errs[0]
	}
	return env, nil
}

// triad is a STREAM triad a = b + s·c over a working set of ws bytes, split
// across GOMAXPROCS goroutines like the executor's worker pool.
type triad struct {
	a, b, c []float64
	durs    []time.Duration
}

func newTriad(ws int) *triad {
	n := ws / 24
	t := &triad{a: make([]float64, n), b: make([]float64, n), c: make([]float64, n)}
	for i := range t.b {
		t.b[i], t.c[i] = float64(i%7), float64(i%5)
	}
	return t
}

func (t *triad) run() {
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(t.a) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(t.a); lo += chunk {
		hi := min(lo+chunk, len(t.a))
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b, c := t.a[lo:hi], t.b[lo:hi], t.c[lo:hi]
			for i := range a {
				a[i] = b[i] + 3*c[i]
			}
		}()
	}
	wg.Wait()
}

func (t *triad) gbs() float64 {
	return 24 * float64(len(t.a)) / median(micros(t.durs)) / 1e3
}

func execSweep(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var (
		env              *execEnv
		setups, compiles []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
			env = nil
		}
		runtime.GC()
		start := time.Now()
		e, err := setupExec(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		compiles = append(compiles, float64(e.compile.Nanoseconds())/1e6)
		env = e
	}
	defer env.close()
	out.e2e["setup_s"] = median(setups)

	triads := map[int]*triad{} // one per distinct working-set size
	var triadList []*triad
	for _, c := range env.cases {
		if triads[c.ws] == nil {
			triads[c.ws] = newTriad(c.ws)
			triadList = append(triadList, triads[c.ws])
		}
	}
	order := make([]*execCase, len(env.cases))
	for i, p := range rand.New(rand.NewSource(cfg.seed)).Perm(len(order)) {
		order[i] = env.cases[p]
	}
	var rounds []time.Duration
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		var round time.Duration
		for _, c := range order {
			t := time.Now()
			err := c.run()
			d := time.Since(t)
			c.durs = append(c.durs, d)
			round += d
			out.count(c.name, err != nil)
		}
		rounds = append(rounds, round)
		for _, tr := range triadList {
			t := time.Now()
			tr.run()
			tr.durs = append(tr.durs, time.Since(t))
		}
	}
	out.endMeasured()
	out.e2e["latency_p50_us"] = median(micros(rounds))
	out.e2e["ops_per_s"] = windowedRate(rounds)

	if cfg.trace {
		var all []float64
		gpts := map[string]float64{}
		for _, c := range env.cases {
			med := median(micros(c.durs)) / 1e6
			gpts[c.name] = c.points / med / 1e9
			all = append(all, gpts[c.name])
			out.layers["exec."+c.name+".gpts"] = gpts[c.name]
			out.layers["exec."+c.name+".roofline_frac"] = c.bytes / med / 1e9 / triads[c.ws].gbs()
		}
		out.layers["exec.gpts_per_s"] = geomean(all)
		out.layers["exec.fused_speedup_k4"] = gpts["fused_k4"] / gpts["fused_k1"]
		out.layers["exec.triad_gbs.l2"] = triads[env.cases[0].ws].gbs()
		out.layers["exec.triad_gbs.big"] = triads[env.cases[1].ws].gbs()
		out.layers["exec.compile_ms"] = median(compiles)
		const reps = 4
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < reps; i++ {
			for _, c := range env.cases {
				if err := c.run(); err != nil {
					return nil, err
				}
			}
		}
		runtime.ReadMemStats(&b)
		out.layers["exec.allocs_per_run"] = float64(b.Mallocs-a.Mallocs) / float64(reps*len(env.cases))
	}
	for _, c := range env.cases {
		out.fail(c.check())
	}
	return out, nil
}
