package service

import (
	"sync"
	"testing"
	"time"
)

// hubContract checks the event hub's contract for one event type: the
// history keeps the newest maxEventHistory events, a stalled subscriber
// loses events instead of blocking the publisher, every subscriber channel
// closes exactly once however close and unsubscribe interleave, and a
// subscription taken after close replays the history on a closed channel.
func hubContract[E any](t *testing.T, mk func(seq int) E, seqOf func(E) int) {
	var h hub[E]
	hist, stalled, unsubStalled := h.subscribe()
	if len(hist) != 0 {
		t.Fatalf("fresh hub replayed %d events", len(hist))
	}
	_, reader, unsubReader := h.subscribe()

	// Publish far more than the stalled subscriber's buffer and the history
	// cap hold. The reader drains as it goes; the stalled one never reads.
	// If publish blocked on the stalled subscriber, the test would hang here.
	const total = 2*maxEventHistory + 500 // past the history cap and past a batch trim
	for i := 1; i <= total; i++ {
		h.publish(mk(i))
		if e := <-reader; seqOf(e) != i {
			t.Fatalf("reader got seq %d, want %d", seqOf(e), i)
		}
	}
	if len(stalled) != subscriberBuffer {
		t.Fatalf("stalled subscriber holds %d events, want its full buffer of %d", len(stalled), subscriberBuffer)
	}
	if first := seqOf(<-stalled); first != 1 {
		t.Fatalf("stalled subscriber's oldest event is seq %d, want 1 (later ones dropped)", first)
	}

	hist, late, unsubLate := h.subscribe()
	if len(hist) != maxEventHistory {
		t.Fatalf("history holds %d events, want the cap %d", len(hist), maxEventHistory)
	}
	if lo, hi := seqOf(hist[0]), seqOf(hist[len(hist)-1]); lo != total-maxEventHistory+1 || hi != total {
		t.Fatalf("history spans seq %d..%d, want the newest %d..%d", lo, hi, total-maxEventHistory+1, total)
	}

	// Unsubscribe one subscriber before close, the others after: none may be
	// closed twice (that would panic), all must end up closed.
	unsubReader()
	unsubReader()
	h.close()
	h.close()
	unsubStalled()
	unsubLate()
	for name, ch := range map[string]<-chan E{"reader": reader, "stalled": stalled, "late": late} {
		deadline := time.After(time.Second)
	drain:
		for {
			select {
			case _, open := <-ch:
				if !open {
					break drain
				}
			case <-deadline:
				t.Fatalf("%s subscriber's channel was not closed", name)
			}
		}
	}

	hist, after, unsubAfter := h.subscribe()
	defer unsubAfter()
	if len(hist) != maxEventHistory {
		t.Fatalf("subscribe after close replayed %d events, want %d", len(hist), maxEventHistory)
	}
	if _, open := <-after; open {
		t.Fatal("subscribe after close returned an open channel")
	}
	h.publish(mk(total + 1)) // a publish after close must not panic
}

// hubConcurrency hammers one hub from a publisher and several subscribers
// that come and go while it closes; run under -race. Every subscriber must
// see its channel closed, and nothing may panic on a double close.
func hubConcurrency[E any](t *testing.T, mk func(seq int) E) {
	var h hub[E]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 2000; i++ {
			h.publish(mk(i))
		}
		h.close()
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, ch, unsub := h.subscribe()
				_, open := <-ch
				unsub()
				if !open {
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestHubContract(t *testing.T) {
	t.Run("Event", func(t *testing.T) {
		hubContract(t, func(seq int) Event { return Event{Seq: seq, State: StateRunning} },
			func(e Event) int { return e.Seq })
		hubConcurrency(t, func(seq int) Event { return Event{Seq: seq} })
	})
	t.Run("DaemonEvent", func(t *testing.T) {
		hubContract(t, func(seq int) DaemonEvent { return DaemonEvent{Seq: seq, Kind: "ingest"} },
			func(e DaemonEvent) int { return e.Seq })
		hubConcurrency(t, func(seq int) DaemonEvent { return DaemonEvent{Seq: seq} })
	})
}
