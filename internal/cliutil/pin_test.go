package cliutil

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestSweepOutputPins pins the exact JSON a server sweep job returns for
// each of the four long-standing sweep names, and the shard plan the
// coordinator derives for the default case study. Any change to study
// dispatch must leave these bytes alone.
func TestSweepOutputPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full sweeps")
	}
	pins := []struct {
		sweep, sha string
	}{
		{"tables", "9c1154afd81fe7d21614473133fc2fd96fc0f306db9b8274e87ab381192f752f"},
		{"figures", "e7452e854ce17cd00110b1b9adad86a9d001864715f71ce48610a887babc1214"},
		{"casestudy", "9e9c7133e819b5398e0d61ee043a2445b9383d9562e184add9feaffe2d29b8c5"},
		{"faultsweep", "0bcb8a2231608aac20f36b96ced6baaf764c73883fb21427fc4c5dd61d2f3faa"},
	}
	for _, p := range pins {
		spec := SweepSpec{Sweeps: []string{p.sweep}}
		res, err := spec.Run(context.Background(), 0, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.sweep, err)
		}
		if got := jsonSHA(t, res); got != p.sha {
			t.Errorf("sweep %s: result sha256 %s, want %s", p.sweep, got, p.sha)
		}
	}

	shards, err := ShardSweep(SweepSpec{Sweeps: []string{"casestudy"}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jsonSHA(t, shards), "27ab9c4b74851ea625ac4bc0ae500a88f4693bd0eb5d65904b4bf3f98acb10af"; got != want {
		t.Errorf("casestudy shard plan sha256 %s, want %s", got, want)
	}
}

func jsonSHA(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
