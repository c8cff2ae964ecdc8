package main

// Output checks. Each one compares the program's answer with a value this
// benchmark computes itself — its own dot product, Kendall τ-b, naive stencil
// loop and record comparison — so a wrong answer cannot pass by agreeing with
// the code under test.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"repro/internal/exec"
	"repro/internal/feature"
	"repro/internal/grid"
	"repro/internal/stencil"
	"repro/internal/tunespace"
	"repro/internal/wal"
)

// readWeights reads W from an artifact's model.json, the file the server
// loads its model from.
func readWeights(artifactDir string) ([]float64, error) {
	b, err := os.ReadFile(filepath.Join(artifactDir, "model.json"))
	if err != nil {
		return nil, err
	}
	var m struct {
		W []float64 `json:"w"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parsing model.json: %w", err)
	}
	if len(m.W) == 0 {
		return nil, fmt.Errorf("model.json holds no weights")
	}
	return m.W, nil
}

// dot is W·x over a sparse feature vector; indices beyond W contribute 0.
func dot(w []float64, x feature.Vector) float64 {
	s := 0.0
	for i, idx := range x.Idx {
		if int(idx) < len(w) {
			s += w[idx] * x.Val[i]
		}
	}
	return s
}

// scoresOf recomputes the model score of every candidate.
func scoresOf(w []float64, enc *feature.Encoder, q stencil.Instance, cands []tunespace.Vector) []float64 {
	out := make([]float64, len(cands))
	for i, v := range cands {
		out[i] = dot(w, enc.Encode(q, v))
	}
	return out
}

// scoreTol is the slack allowed between two summation orders of one score.
func scoreTol(ref float64) float64 { return 1e-9 * max(1, math.Abs(ref)) }

// indexOf finds v in cands.
func indexOf(cands []tunespace.Vector, v tunespace.Vector) int {
	for i, c := range cands {
		if c == v {
			return i
		}
	}
	return -1
}

// checkArgmax requires the picked candidate to score the maximum.
func checkArgmax(scores []float64, pick int) error {
	if pick < 0 || pick >= len(scores) {
		return fmt.Errorf("pick %d is not a candidate of %d", pick, len(scores))
	}
	best := math.Inf(-1)
	for _, s := range scores {
		best = max(best, s)
	}
	if scores[pick] < best-scoreTol(best) {
		return fmt.Errorf("pick scores %.17g, below the maximum %.17g", scores[pick], best)
	}
	return nil
}

// checkRankOrder requires order to be a permutation of the candidates whose
// recomputed scores never increase.
func checkRankOrder(scores []float64, order []int) error {
	if len(order) != len(scores) {
		return fmt.Errorf("order ranks %d of %d candidates", len(order), len(scores))
	}
	seen := make([]bool, len(scores))
	for i, o := range order {
		if o < 0 || o >= len(scores) || seen[o] {
			return fmt.Errorf("order is not a permutation at position %d", i)
		}
		seen[o] = true
		if i > 0 && scores[o] > scores[order[i-1]]+scoreTol(scores[o]) {
			return fmt.Errorf("order position %d scores %.17g after %.17g", i, scores[o], scores[order[i-1]])
		}
	}
	return nil
}

// checkEqualValues requires bit-equal values.
func checkEqualValues(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("value %d is %.17g, want %.17g", i, got[i], want[i])
		}
	}
	return nil
}

// kendallTauB is the τ-b rank correlation by direct pair counting.
func kendallTauB(x, y []float64) float64 {
	var concordant, discordant, tiesX, tiesY float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			dx, dy := x[i]-x[j], y[i]-y[j]
			switch {
			case dx == 0 && dy == 0:
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case (dx > 0) == (dy > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	den := math.Sqrt((concordant + discordant + tiesX) * (concordant + discordant + tiesY))
	if den == 0 {
		return 0
	}
	return (concordant - discordant) / den
}

// naiveStencil applies k to the inputs point by point in float64 and
// returns the interior in (z, y, x) order.
func naiveStencil[T grid.Float](k *exec.LinearKernel, ins []*grid.Grid[T]) []float64 {
	g := ins[0]
	out := make([]float64, 0, g.NX*g.NY*g.NZ)
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				s := 0.0
				for _, t := range k.Terms {
					in := ins[t.Buffer]
					s += t.Weight * float64(in.Data()[in.Index(x+t.Offset.X, y+t.Offset.Y, z+t.Offset.Z)])
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// checkStencil compares out with the naive loop within the forward-error
// bound (N+2)·ε·Σ|w|·max|x| for N terms in T's precision.
func checkStencil[T grid.Float](k *exec.LinearKernel, ins []*grid.Grid[T], out *grid.Grid[T]) error {
	eps := 0x1p-52
	if out.ElemBytes() == 4 {
		eps = 0x1p-23
	}
	sumW, maxX := 0.0, 0.0
	for _, t := range k.Terms {
		sumW += math.Abs(t.Weight)
	}
	for _, in := range ins {
		for _, v := range in.Data() {
			maxX = max(maxX, math.Abs(float64(v)))
		}
	}
	bound := float64(len(k.Terms)+2) * eps * sumW * maxX
	ref := naiveStencil(k, ins)
	i := 0
	for z := 0; z < out.NZ; z++ {
		for y := 0; y < out.NY; y++ {
			for x := 0; x < out.NX; x++ {
				got := float64(out.At(x, y, z))
				if d := math.Abs(got - ref[i]); !(d <= bound) {
					return fmt.Errorf("%s at (%d,%d,%d): %.17g, naive %.17g, error %.3g above bound %.3g",
						k.Name, x, y, z, got, ref[i], d, bound)
				}
				i++
			}
		}
	}
	return nil
}

// checkSameBits requires two grids to hold bit-identical interiors.
func checkSameBits[T grid.Float](got, want *grid.Grid[T]) error {
	for z := 0; z < got.NZ; z++ {
		for y := 0; y < got.NY; y++ {
			for x := 0; x < got.NX; x++ {
				a, b := float64(got.At(x, y, z)), float64(want.At(x, y, z))
				if math.Float64bits(a) != math.Float64bits(b) {
					return fmt.Errorf("(%d,%d,%d): %.17g, want %.17g bit for bit", x, y, z, a, b)
				}
			}
		}
	}
	return nil
}

// refreshPeriodic copies the wrapped interior into every halo cell, the
// boundary rule fused execution assumes between steps.
func refreshPeriodic[T grid.Float](g *grid.Grid[T]) {
	d := g.Data()
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	for z := -g.HaloZ; z < g.NZ+g.HaloZ; z++ {
		for y := -g.Halo; y < g.NY+g.Halo; y++ {
			for x := -g.Halo; x < g.NX+g.Halo; x++ {
				if x >= 0 && x < g.NX && y >= 0 && y < g.NY && z >= 0 && z < g.NZ {
					continue
				}
				d[g.Index(x, y, z)] = d[g.Index(wrap(x, g.NX), wrap(y, g.NY), wrap(z, g.NZ))]
			}
		}
	}
}

// observationKey identifies one reported observation by a 64-bit FNV-1a
// hash of its fields, so a run keeps 8 bytes per offered observation.
func observationKey(kernel string, size [3]int, v [6]int, runtime float64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%v|%x", kernel, size, v, math.Float64bits(runtime))
	return h.Sum64()
}

// checkWALRecords requires the log to hold as many records as observations
// were accepted, each a valid client-reported record among those offered.
// When none was dropped, offered and accepted are the same multiset and the
// log must hold exactly it.
func checkWALRecords(offered map[uint64]int, accepted int, recs []wal.Record) error {
	left := make(map[uint64]int, len(offered))
	for k, n := range offered {
		left[k] = n
	}
	if len(recs) != accepted {
		return fmt.Errorf("WAL holds %d records, %d observations were accepted", len(recs), accepted)
	}
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("WAL record %d: %v", i, err)
		}
		if r.Source != "observe" {
			return fmt.Errorf("WAL record %d has source %q", i, r.Source)
		}
		k := observationKey(r.Kernel, r.Size, r.Vector, r.RuntimeSeconds)
		if left[k] == 0 {
			return fmt.Errorf("WAL record %d (%s %v %v %g s) was never offered", i, r.Kernel, r.Size, r.Vector, r.RuntimeSeconds)
		}
		left[k]--
	}
	return nil
}
