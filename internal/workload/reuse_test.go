package workload

import (
	"math"
	"reflect"
	"testing"
)

func TestSpecCloneIndependent(t *testing.T) {
	orig := AngryBirds()
	c := orig.Clone()
	if !reflect.DeepEqual(orig, c) {
		t.Fatal("clone differs from original")
	}
	c.Name = "mutant"
	c.Phases[0].DemandGIPS *= 2
	c.Phases[0].Traits.CPI = math.Pi
	c.ProfileFreqIdxs[0] = 17
	c.Phases = append(c.Phases, c.Phases[0])

	ref := AngryBirds()
	if !reflect.DeepEqual(orig, ref) {
		t.Fatal("mutating the clone changed the original")
	}
}
