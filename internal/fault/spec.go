package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind is the flavour of an injected fault.
type Kind string

// Fault kinds an injection rule can specify.
const (
	// KindError makes the call site return ErrInjected.
	KindError Kind = "error"
	// KindLatency makes the call site sleep for the rule's Delay.
	KindLatency Kind = "latency"
	// KindPanic makes the call site panic (the retry layer recovers it).
	KindPanic Kind = "panic"
)

// Rule is one injection rule: at Site, with Probability per call, inject
// Kind. Latency rules carry the Delay to sleep.
type Rule struct {
	Site        string
	Kind        Kind
	Probability float64
	Delay       time.Duration
}

// String renders the rule in spec grammar form.
func (r Rule) String() string {
	s := fmt.Sprintf("%s:%s:%g", r.Site, r.Kind, r.Probability)
	if r.Kind == KindLatency {
		s += ":" + r.Delay.String()
	}
	return s
}

// Spec is a parsed fault specification: a seed plus a list of rules.
//
// Grammar (the -fault-spec flag and the create API's options.faultSpec):
//
//	spec  = item *( ";" item )
//	item  = "seed=" int64          (default 1)
//	      | site ":" kind ":" prob [ ":" duration ]
//	site  = "whatif" | "stats" | "import" | any identifier
//	kind  = "error" | "latency" | "panic"
//	prob  = float in [0, 1]
//
// The duration argument is required for latency rules and rejected for the
// others. Example:
//
//	seed=42;whatif:error:0.10;import:latency:0.5:5ms
type Spec struct {
	Seed  int64
	Rules []Rule
}

// ParseSpec parses the fault-spec grammar. An empty string yields an empty
// spec (whose Injector injects nothing).
func ParseSpec(s string) (*Spec, error) {
	spec := &Spec{Seed: 1}
	for _, item := range strings.Split(s, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(item, "seed="); ok {
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %w", rest, err)
			}
			spec.Seed = n
			continue
		}
		parts := strings.Split(item, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("fault: rule %q is not site:kind:prob[:duration]", item)
		}
		r := Rule{Site: parts[0], Kind: Kind(parts[1])}
		p, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("fault: rule %q has bad probability %q (want 0..1)", item, parts[2])
		}
		r.Probability = p
		switch r.Kind {
		case KindError, KindPanic:
			if len(parts) != 3 {
				return nil, fmt.Errorf("fault: rule %q: %s takes no argument", item, r.Kind)
			}
		case KindLatency:
			if len(parts) != 4 {
				return nil, fmt.Errorf("fault: rule %q: latency needs a duration argument", item)
			}
			d, err := time.ParseDuration(parts[3])
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: bad duration: %w", item, err)
			}
			r.Delay = d
		default:
			return nil, fmt.Errorf("fault: rule %q has unknown kind %q (want error, latency, panic)", item, parts[1])
		}
		spec.Rules = append(spec.Rules, r)
	}
	return spec, nil
}

// String renders the spec back in grammar form (seed first, rules in order).
func (s *Spec) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	for _, r := range s.Rules {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, ";")
}
