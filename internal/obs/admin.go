package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// NewAdminMux returns the admin-side mux the binaries serve on a
// separate listener (-admin-addr), away from end-user traffic:
//
//	/metrics      Prometheus text exposition of reg
//	/healthz      200 "ok" while the process serves
//	/debug/pprof  the standard net/http/pprof handlers
//
// Callers add their own extra endpoints (e.g. /debug/stats) on the
// returned mux.
//
// Building the mux also registers the process-wide telemetry every
// admin endpoint should carry: pbppm_build_info (build identity) and
// the pbppm_go_* runtime collector (goroutines, heap, GC pauses,
// scheduler latency). Both registrations are idempotent.
func NewAdminMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		RegisterBuildInfo(reg)
		RegisterRuntimeMetrics(reg)
		mux.Handle("/metrics", reg.Handler())
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
