package sim

import (
	"math"
	"testing"

	"pqs/internal/config"
	"pqs/internal/quorum"
)

// tolerance returns a 5-sigma binomial confidence band around eps.
func tolerance(eps float64, trials int) float64 {
	return 5*math.Sqrt(eps*(1-eps)/float64(trials)) + 1e-4
}

func TestMeasureLoadUniform(t *testing.T) {
	u, err := quorum.NewUniform(30, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureLoad(u, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := u.Load() // 0.2
	if math.Abs(res.MeanRate-want) > 0.01 {
		t.Errorf("mean rate %v, want %v", res.MeanRate, want)
	}
	if math.Abs(res.MaxRate-want) > 0.03 {
		t.Errorf("max rate %v, want ~%v (uniform system: all servers equal)", res.MaxRate, want)
	}
	if len(res.PerServer) != 30 {
		t.Errorf("per-server size %d", len(res.PerServer))
	}
	if _, err := MeasureLoad(u, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestMeasureLoadGrid(t *testing.T) {
	g, err := quorum.NewGrid(36)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureLoad(g, 20000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxRate-g.Load()) > 0.02 {
		t.Errorf("grid max rate %v, want ~%v", res.MaxRate, g.Load())
	}
}

func TestMeasureAvailabilityMatchesExact(t *testing.T) {
	trials := 30000
	u, err := quorum.NewUniform(30, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := quorum.NewGrid(25)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []quorum.System{u, g} {
		for _, p := range []float64{0.3, 0.6, 0.8} {
			emp, err := MeasureAvailability(sys, p, trials, 7)
			if err != nil {
				t.Fatal(err)
			}
			exact := sys.FailProb(p)
			if diff := math.Abs(emp - exact); diff > tolerance(exact, trials) {
				t.Errorf("%s p=%v: MC %v vs exact %v", sys.Name(), p, emp, exact)
			}
		}
	}
}

func TestMeasureAvailabilityByzGridWithinBounds(t *testing.T) {
	// ByzGrid.FailProb is a documented union-bound approximation; the MC
	// estimate is the ground truth and must not exceed it.
	g, err := quorum.NewMaskGrid(49, 3)
	if err != nil {
		t.Fatal(err)
	}
	trials := 20000
	for _, p := range []float64{0.1, 0.3, 0.5} {
		emp, err := MeasureAvailability(g, p, trials, 8)
		if err != nil {
			t.Fatal(err)
		}
		upper := g.FailProb(p)
		if emp > upper+tolerance(upper, trials) {
			t.Errorf("p=%v: MC %v exceeds union bound %v", p, emp, upper)
		}
	}
}

func TestMeasureAvailabilityValidation(t *testing.T) {
	u, _ := quorum.NewUniform(10, 3)
	if _, err := MeasureAvailability(u, -0.1, 10, 1); err == nil {
		t.Error("bad p accepted")
	}
	if _, err := MeasureAvailability(u, 0.5, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestClusterHelpers(t *testing.T) {
	c := NewCluster(config.Cluster{N: 5, Seed: 1})
	if c.N() != 5 || len(c.Replicas) != 5 {
		t.Error("cluster size wrong")
	}
	for i, r := range c.Replicas {
		if int(r.ID()) != i {
			t.Errorf("replica %d has id %d", i, r.ID())
		}
	}
}
