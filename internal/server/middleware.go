package server

import (
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// statusWriter captures the status code and body size a handler wrote,
// for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status  int
	written int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.written += int64(n)
	return n, err
}

// swPool recycles statusWriters: the wrapper is born and dies inside
// wrap, so the hot path pays no per-request allocation for it.
var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// wrap applies the server's per-request machinery around a handler:
// panic recovery, the in-flight gauge, a request deadline, the
// max-body-size guard, structured logging, and per-route metrics.
// route is the metrics/log label ("POST /v1/ttm").
func (s *Server) wrap(route string, h http.HandlerFunc) http.Handler {
	stats := s.metrics.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.IncInflight()
		sw := swPool.Get().(*statusWriter)
		*sw = statusWriter{ResponseWriter: w}

		defer func() {
			if rec := recover(); rec != nil {
				s.log.Printf("panic on %s: %v\n%s", route, rec, debug.Stack())
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal server error")
				}
			}
			s.metrics.DecInflight()
			d := time.Since(start)
			stats.observe(sw.status, d)
			if !s.cfg.DisableAccessLog {
				s.log.Printf("%s %s %d %dB %s", r.Method, r.URL.RequestURI(), sw.status, sw.written, d)
			}
			swPool.Put(sw)
		}()

		// The per-request deadline is NOT armed here: a timer context
		// costs allocations every request, and the cheap routes (cache
		// hits, reads) never block. respondCached arms it around the
		// compute closure, the only place work can stall; slow request
		// bodies are bounded by the http.Server's ReadTimeout.
		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		h(sw, r)
	})
}
