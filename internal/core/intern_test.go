package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/derive"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestInternedStructuresUnchanged: interned structures are immutable — the
// derivation engine hands them to the backend inside every top it fetches,
// without a clone — so after a tune and a storage-halved revision of every
// toy database at Parallelism 4, aligned and unaligned, every structure the
// tune's and the revision's interners hold still renders exactly the key it
// was interned under.
func TestInternedStructuresUnchanged(t *testing.T) {
	for _, name := range []string{"synt1", "tpch", "psoft", "cust"} {
		for _, aligned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/aligned=%v", name, aligned), func(t *testing.T) {
				srv, w, base := toyBackend(t, name)
				opts := Options{BaseConfig: base, Aligned: aligned, Parallelism: 4, SkipReports: true}.withDefaults()
				ctx, span := obs.StartSpan(context.Background(), "pipeline", "tune")
				defer span.End()
				start := time.Now()
				tr := newTracker(ctx, opts, start)
				st, rec, err := buildCostedState(ctx, srv, w, opts, tr, span)
				if err != nil {
					t.Fatal(err)
				}
				if rec, err = runSearch(srv, st, rec, opts.constraints().normalize(), opts, start); err != nil {
					t.Fatal(err)
				}
				checkInterned(t, "tune", st.ev.in)

				pool := st.seal(opts)
				ropts := pool.Knobs.apply(Options{Parallelism: 4, SkipReports: true}).withDefaults()
				tuned, err := workload.FromStatements(pool.Statements)
				if err != nil {
					t.Fatal(err)
				}
				rst := pool.warmState(srv, tuned, pool.Base.Clone(), ropts.Derive, newTracker(context.Background(), ropts, time.Now()))
				cons := Constraints{StorageBudget: rec.StorageBytes / 2, Aligned: aligned}
				if _, err := runSearch(srv, rst, &Recommendation{}, cons, ropts, time.Now()); err != nil {
					t.Fatal(err)
				}
				checkInterned(t, "revision", rst.ev.in)
			})
		}
	}
}

// checkInterned fails unless every interned ID records a structure whose
// key is the ID's key.
func checkInterned(t *testing.T, what string, in *derive.Interner) {
	t.Helper()
	if in.Len() == 0 {
		t.Fatalf("%s: nothing interned", what)
	}
	for id := int32(0); id < int32(in.Len()); id++ {
		s := in.Structure(id)
		if s.Index == nil && s.View == nil && s.Part == nil {
			t.Errorf("%s: ID %d (%s) records no structure", what, id, in.Key(id))
			continue
		}
		if got, want := s.Key(), in.Key(id); got != want {
			t.Errorf("%s: ID %d was interned as %s but now renders %s", what, id, want, got)
		}
	}
}
