package core

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// TestColdEqualsWarm: a recommendation is costed under one statistics
// state. Each toy generator is tuned on a fresh backend (cold: candidate
// selection creates statistics, so the baseline costed before them is
// re-costed after) and then again on the same backend (warm: every
// statistic exists from the start), at P=1 and P=4; BaseCost, Cost, the
// improvement's bits, the recommended design's bytes and the what-if calls
// must be equal.
func TestColdEqualsWarm(t *testing.T) {
	for _, c := range canonicalToys {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", c.name, par), func(t *testing.T) {
				srv, w, base := toyBackend(t, c.name)
				opts := Options{Features: c.f, BaseConfig: base, Parallelism: par, SkipReports: true}
				cold, err := Tune(srv, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := Tune(srv, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if cold.StatsCreated == 0 || warm.StatsCreated != 0 {
					t.Fatalf("statistics created cold %d, warm %d: want some, then none", cold.StatsCreated, warm.StatsCreated)
				}
				if cold.BaseCost != warm.BaseCost || cold.Cost != warm.Cost ||
					math.Float64bits(cold.Improvement) != math.Float64bits(warm.Improvement) || cold.WhatIfCalls != warm.WhatIfCalls {
					t.Fatalf("cold base %v cost %v improvement %v calls %d, warm base %v cost %v improvement %v calls %d",
						cold.BaseCost, cold.Cost, cold.Improvement, cold.WhatIfCalls, warm.BaseCost, warm.Cost, warm.Improvement, warm.WhatIfCalls)
				}
				cd, err := json.Marshal(cold.Config)
				if err != nil {
					t.Fatal(err)
				}
				wd, err := json.Marshal(warm.Config)
				if err != nil {
					t.Fatal(err)
				}
				if string(cd) != string(wd) {
					t.Fatalf("designs differ:\ncold %s\nwarm %s", cd, wd)
				}
			})
		}
	}
}
