package server

import (
	"context"
	"net/http"
	"sync"

	"codepack"
	"codepack/internal/trace"
)

// flightGroup coalesces concurrent cache misses for the same digest:
// the first request (the leader) runs the fill — peer fetch and/or
// compression — while followers park on its completion instead of
// burning a worker each on identical dictionary builds. Keys are held
// only while a fill is in flight.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done   chan struct{}
	comp   *codepack.Compressed
	cached bool
	herr   *httpError
}

// do runs fn for key unless an identical fill is already in flight, in
// which case it waits for that fill's result. The follower bool
// reports which side this call was. A follower whose ctx ends while
// waiting abandons the wait (the leader's fill continues and still
// lands in the cache). If fn panics, the key is released and the
// followers get a 500 before the panic continues up the leader's stack.
func (g *flightGroup) do(ctx context.Context, key string, fn func(ctx context.Context) (*codepack.Compressed, bool, *httpError)) (comp *codepack.Compressed, cached bool, follower bool, herr *httpError) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		_, ws := trace.Start(ctx, "singleflight-wait")
		defer ws.End()
		select {
		case <-f.done:
			return f.comp, true, true, f.herr
		case <-ctx.Done():
			ws.SetAttr("outcome", "abandoned")
			return nil, false, true, &httpError{code: http.StatusServiceUnavailable,
				msg: "request ended while waiting on an in-flight compression"}
		}
	}
	f := &flight{done: make(chan struct{}), herr: errInternal}
	g.m[key] = f
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()

	f.comp, f.cached, f.herr = fn(ctx)
	return f.comp, f.cached, false, f.herr
}
