package server

import (
	"encoding/json"
	"net/http"

	"nanobench"
)

// streamItems writes a sweep's results as NDJSON — one compact JSON
// object per line, in sweep-expansion order, flushed as each result
// lands so clients see progress while the tail is still simulating.
//
// When a write fails the client is gone; net/http then cancels the
// request context, which aborts the in-flight evaluations between
// benchmark runs. The channel is drained (it is buffered to the sweep
// size, so this never blocks on a dead consumer) so the handler returns
// only once the cancelled evaluations have delivered and the merge has
// closed the channel.
func (s *Server) streamItems(w http.ResponseWriter, items <-chan nanobench.BatchItem) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Tell buffering reverse proxies not to defeat the progressive
	// delivery this endpoint exists for.
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for it := range items {
		if err := enc.Encode(toItem(it)); err != nil {
			for range items { //nolint:revive // drain; see doc comment
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
