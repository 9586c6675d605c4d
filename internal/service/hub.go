package service

import (
	"encoding/json"
	"net/http"
	"sync"
)

// maxEventHistory bounds the event log a hub replays to late subscribers;
// beyond it the oldest events are dropped (Seq gaps tell).
const maxEventHistory = 1024

// subscriberBuffer is each live subscriber's channel depth: enough to ride
// out a burst of progress events (a greedy step publishes a handful at
// once) while a reader is busy writing the previous ones to its client.
const subscriberBuffer = 64

// hub is the bounded event log and subscriber fan-out behind both
// Session.Subscribe and Daemon.Subscribe: it keeps the newest
// maxEventHistory events for replay, delivers each published event to every
// live subscriber without ever blocking the publisher (a subscriber whose
// buffer is full loses that event), and closes every subscriber channel
// exactly once when the owner goes terminal. The zero value is ready to use.
type hub[E any] struct {
	mu      sync.Mutex
	events  []E
	subs    map[int]chan E
	nextSub int
	closed  bool
}

// publish appends an event to the history and fans it out.
func (h *hub[E]) publish(e E) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.events = append(h.events, e)
	if len(h.events) >= 2*maxEventHistory {
		// Trim in batches, so a long-running owner pays O(1) per publish.
		h.events = h.events[:copy(h.events, h.events[len(h.events)-maxEventHistory:])]
	}
	for _, ch := range h.subs {
		select {
		case ch <- e:
		default: // drop for slow subscribers; events are self-contained
		}
	}
}

// subscribe returns the history so far (for replay), a channel of subsequent
// events that is closed when the hub closes, and an unsubscribe function.
// Subscribing to a closed hub returns the history and a closed channel.
func (h *hub[E]) subscribe() ([]E, <-chan E, func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist := append([]E(nil), h.events[max(0, len(h.events)-maxEventHistory):]...)
	ch := make(chan E, subscriberBuffer)
	if h.closed {
		close(ch)
		return hist, ch, func() {}
	}
	if h.subs == nil {
		h.subs = map[int]chan E{}
	}
	id := h.nextSub
	h.nextSub++
	h.subs[id] = ch
	return hist, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(ch)
		}
	}
}

// close marks the hub terminal and closes every subscriber channel; the
// owner publishes its final event first. Closing twice is harmless.
func (h *hub[E]) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
}

// streamNDJSON serves a subscription as NDJSON: the history first, then live
// events until the hub closes or the client goes away. When the hub closes,
// final (if non-nil) supplies one last line — a session stream always ends
// with the terminal snapshot; a daemon stream just ends.
func streamNDJSON[E any](w http.ResponseWriter, r *http.Request, hist []E, live <-chan E, final func() any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	for _, e := range hist {
		enc.Encode(e)
	}
	flush()
	for {
		select {
		case e, open := <-live:
			if !open {
				if final != nil {
					enc.Encode(final())
					flush()
				}
				return
			}
			enc.Encode(e)
			flush()
		case <-r.Context().Done():
			return
		}
	}
}
