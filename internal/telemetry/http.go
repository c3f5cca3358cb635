package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// HandlerWith returns the telemetry HTTP surface, its /metrics snapshot
// drawn from snapshot (WriteSnapshot renders the default registry; the
// fleet endpoint passes a closure that Unions every machine's registry
// into one exposition, so a single /metrics covers the whole cluster):
//
//	/metrics       Prometheus text snapshot
//	/trace         Chrome trace-event JSON of the default span recorder
//	/debug/pprof/  the standard pprof index, profiles, and symbols
//	/debug/vars    expvar JSON
//	/              a plain-text index of the above
//
// Everything is read-only; the handlers never touch the hot path beyond the
// same atomics it writes.
func HandlerWith(snapshot func(io.Writer) error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snapshot(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := DefaultSpans.WriteChrome(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "caer telemetry")
		fmt.Fprintln(w, "  /metrics      Prometheus text snapshot")
		fmt.Fprintln(w, "  /trace        Chrome trace-event JSON (load in Perfetto)")
		fmt.Fprintln(w, "  /debug/pprof  pprof profiles")
		fmt.Fprintln(w, "  /debug/vars   expvar JSON")
	})
	return mux
}

// Serve starts the telemetry HTTP endpoint on addr (e.g. ":6060") and
// returns the bound listener; close it to stop serving. The server runs on
// its own goroutine and never blocks the sampling loop.
func Serve(addr string) (net.Listener, error) { return ServeWith(addr, WriteSnapshot) }

// ServeWith is Serve with a custom /metrics snapshot source (see
// HandlerWith).
func ServeWith(addr string, snapshot func(io.Writer) error) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: HandlerWith(snapshot)}
	go func() {
		// Serve returns when the listener closes; that is the shutdown path.
		_ = srv.Serve(ln)
	}()
	return ln, nil
}
