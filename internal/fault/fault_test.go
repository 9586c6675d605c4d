package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=42;whatif:error:0.10;import:latency:0.5:5ms;stats:panic:0.01")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 || len(spec.Rules) != 3 {
		t.Fatalf("got %+v", spec)
	}
	if spec.Rules[1].Kind != KindLatency || spec.Rules[1].Delay != 5*time.Millisecond {
		t.Fatalf("latency rule: %+v", spec.Rules[1])
	}
	for i, site := range []string{"whatif", "import", "stats"} {
		if spec.Rules[i].Site != site {
			t.Fatalf("rule %d site %q, want %q", i, spec.Rules[i].Site, site)
		}
	}
	// Round-trip through String.
	spec2, err := ParseSpec(spec.String())
	if err != nil || spec2.String() != spec.String() {
		t.Fatalf("round trip: %v %q vs %q", err, spec2.String(), spec.String())
	}

	for _, bad := range []string{
		"whatif:error",          // missing probability
		"whatif:error:2",        // probability out of range
		"whatif:error:0.5:10ms", // error takes no argument
		"whatif:latency:0.5",    // latency needs a duration
		"whatif:latency:0.5:x",  // bad duration
		"whatif:frob:0.5",       // unknown kind
		"seed=abc",              // bad seed
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}

	empty, err := ParseSpec("")
	if err != nil || NewInjector(empty) != nil {
		t.Fatalf("empty spec should build the nil injector (err %v)", err)
	}
}

func TestInjectorDeterministicAndCounted(t *testing.T) {
	spec, err := ParseSpec("seed=7;whatif:error:0.25")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (errs int) {
		in := NewInjector(spec)
		for i := 0; i < 1000; i++ {
			if in.Inject(SiteWhatIf) != nil {
				errs++
			}
		}
		if got := in.Counts()["whatif/error"]; got != int64(errs) {
			t.Fatalf("counts %d vs observed %d", got, errs)
		}
		return errs
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	if a < 200 || a > 300 {
		t.Fatalf("25%% rate produced %d/1000 errors", a)
	}
}

func TestInjectorMetricsAndNil(t *testing.T) {
	spec, _ := ParseSpec("seed=1;stats:error:1.0")
	in := NewInjector(spec)
	reg := obs.NewRegistry()
	in.SetMetrics(reg)
	if err := in.Inject(SiteStats); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if in.Inject("elsewhere") != nil {
		t.Fatal("unruled site injected")
	}
	snap := reg.Snapshot()
	found := false
	for _, s := range snap {
		if s.Name == "dta_faults_injected_total" {
			found = true
		}
	}
	if !found {
		t.Fatal("dta_faults_injected_total not registered")
	}

	var nilInj *Injector
	if nilInj.Inject(SiteWhatIf) != nil || nilInj.Counts() != nil {
		t.Fatal("nil injector should no-op")
	}
	nilInj.SetMetrics(reg)
}

func TestInjectorPanics(t *testing.T) {
	spec, _ := ParseSpec("seed=1;whatif:panic:1.0")
	in := NewInjector(spec)
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok || pv.Site != SiteWhatIf {
			t.Fatalf("recovered %v", r)
		}
	}()
	in.Inject(SiteWhatIf)
	t.Fatal("no panic")
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	var outcomes []bool
	v, err := Do(context.Background(), Policy{MaxAttempts: 5, BaseDelay: time.Microsecond},
		func() (int, error) {
			calls++
			if calls < 3 {
				return 0, fmt.Errorf("flaky %d", calls)
			}
			return 99, nil
		},
		func(attempt int, err error) { outcomes = append(outcomes, err == nil) })
	if err != nil || v != 99 || calls != 3 {
		t.Fatalf("v=%d err=%v calls=%d", v, err, calls)
	}
	want := []bool{false, false, true}
	for i, ok := range want {
		if outcomes[i] != ok {
			t.Fatalf("outcomes %v", outcomes)
		}
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := Do(context.Background(), Policy{MaxAttempts: 3, BaseDelay: time.Microsecond},
		func() (int, error) { calls++; return 0, boom }, nil)
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestDoRecoversPanics(t *testing.T) {
	calls := 0
	v, err := Do(context.Background(), Policy{MaxAttempts: 2, BaseDelay: time.Microsecond},
		func() (string, error) {
			calls++
			if calls == 1 {
				panic(PanicValue{Site: SiteWhatIf})
			}
			return "ok", nil
		}, nil)
	if err != nil || v != "ok" || calls != 2 {
		t.Fatalf("v=%q err=%v calls=%d", v, err, calls)
	}
}

func TestDoHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := Do(ctx, Policy{}, func() (int, error) { calls++; return 0, errors.New("x") }, nil)
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	// 63 samples never trip, however many fail; the 64th trips the breaker
	// once at least 5% of the samples (4 of 64) failed.
	for _, failures := range []int{3, 4, 63} {
		b := NewBreaker()
		for i := 0; i < 63; i++ {
			b.Record(i >= failures)
		}
		if b.Tripped() {
			t.Fatalf("%d failures: tripped below 64 samples", failures)
		}
		b.Record(true)
		if want := failures >= 4; b.Tripped() != want {
			t.Fatalf("%d failures of 64: tripped=%v, want %v", failures, b.Tripped(), want)
		}
		if att, fail := b.Counts(); att != 64 || fail != int64(failures) {
			t.Fatalf("counts %d/%d", att, fail)
		}
	}

	var nb *Breaker
	nb.Record(false)
	if nb.Tripped() {
		t.Fatal("nil breaker tripped")
	}
}
