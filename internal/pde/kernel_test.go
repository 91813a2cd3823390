package pde

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/grid"
)

func TestSchemeNamesDerivedFromRegistry(t *testing.T) {
	names := SchemeNames()
	if len(names) != len(schemeRegistry) {
		t.Fatalf("SchemeNames has %d entries, registry has %d", len(names), len(schemeRegistry))
	}
	for i, sch := range schemeRegistry {
		if names[i] != sch.Name() {
			t.Errorf("SchemeNames[%d] = %q, registry says %q", i, names[i], sch.Name())
		}
	}
	if _, err := SchemeByName("nope"); err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Errorf("unknown-scheme error should list the registry names, got %v", err)
	}
}

// kernelTestProblems builds one HJB and one FPK problem on a 41×101 grid, the
// size class of the daemon's finer solver configurations.
func kernelTestProblems(t *testing.T, st Stepping, steps int) (*HJBProblem, *FPKProblem, []float64) {
	t.Helper()
	hAxis, err := grid.NewAxis(1, 10, 41)
	if err != nil {
		t.Fatal(err)
	}
	qAxis, err := grid.NewAxis(0, 100, 101)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.NewGrid2D(hAxis, qAxis)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := grid.NewTimeMesh(1, steps)
	if err != nil {
		t.Fatal(err)
	}
	hp := &HJBProblem{
		Grid:     g,
		Time:     tm,
		DiffH:    0.05,
		DiffQ:    0.4,
		DriftH:   func(_, h float64) float64 { return 2 * (5 - h) },
		DriftQ:   func(_, x float64) float64 { return -40 * x },
		Control:  func(_, h, q, dVdq float64) float64 { return 0.5 - 0.01*dVdq + 0.001*h - 0.0001*q },
		Running:  func(_, x, h, q float64) float64 { return 2*h - 0.01*q - x*x },
		Stepping: st,
	}
	fp := &FPKProblem{
		Grid:        g,
		Time:        tm,
		DiffH:       0.05,
		DiffQ:       0.4,
		DriftH:      hp.DriftH,
		DriftQ:      func(_, h, q float64) float64 { return -0.12*q + 0.3*h },
		Form:        Conservative,
		Stepping:    st,
		Renormalize: true,
	}
	lambda0, err := GaussianDensity(g, 5, 1.5, 70, 10)
	if err != nil {
		t.Fatal(err)
	}
	return hp, fp, lambda0
}

func solveBoth(t *testing.T, st Stepping, steps int) (*HJBSolution, *FPKSolution) {
	t.Helper()
	hp, fp, lambda0 := kernelTestProblems(t, st, steps)
	ws, err := NewWorkspace(hp.Grid)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	hsol := NewHJBSolution(hp.Grid, hp.Time)
	if err := SolveHJBInto(ws, nil, hp, hsol); err != nil {
		t.Errorf("SolveHJBInto: %v", err)
		return nil, nil
	}
	fsol := NewFPKSolution(fp.Grid, fp.Time)
	if err := SolveFPKInto(ws, nil, fp, lambda0, fsol); err != nil {
		t.Errorf("SolveFPKInto: %v", err)
		return nil, nil
	}
	return hsol, fsol
}

// TestParallelSweepRace runs full solves concurrently, one workspace per
// goroutine, as the serving pool does. Under `go test -race` it catches state
// shared between workspaces; every concurrent solve must also reproduce the
// serial reference bit for bit.
func TestParallelSweepRace(t *testing.T) {
	for _, st := range []Stepping{Implicit, Explicit} {
		steps := 20
		if st == Explicit {
			steps = 1200 // satisfy the CFL bound on the fine grid
		}
		ref, refF := solveBoth(t, st, steps)
		if ref == nil {
			t.FailNow()
		}
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, gotF := solveBoth(t, st, steps)
				if got == nil {
					return
				}
				for n := range ref.V {
					if !slices.Equal(got.V[n], ref.V[n]) || !slices.Equal(got.X[n], ref.X[n]) {
						t.Errorf("stepping %v: concurrent V/X differ at level %d", st, n)
						return
					}
				}
				for n := range refF.Lambda {
					if !slices.Equal(gotF.Lambda[n], refF.Lambda[n]) {
						t.Errorf("stepping %v: concurrent λ differs at level %d", st, n)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
