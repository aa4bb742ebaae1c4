package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// DebugServer is the opt-in expvar + pprof HTTP listener for
// long-running commands (cmd/experiments, cmd/rankserved). It serves
//
//	/debug/vars        — expvar JSON, including any vars published
//	                     through Publish;
//	/debug/pprof/...   — the standard runtime profiles.
//
// It binds a private mux, so importing this package never mutates
// http.DefaultServeMux routes.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// publishedMu guards the indirection map below. expvar keeps a
// process-global registry that panics on double-registration, so
// Publish registers each name once and routes later calls through the
// map — callers may re-Publish a name (e.g. one engine per join) and
// the newest function wins.
var (
	publishedMu  sync.Mutex
	publishedFns = map[string]func() any{}
)

// Publish registers fn under name in the process expvar registry,
// replacing a previous Publish of the same name. The value appears in
// /debug/vars of every DebugServer. Names already registered by other
// packages are left alone.
func Publish(name string, fn func() any) {
	publishedMu.Lock()
	defer publishedMu.Unlock()
	_, mine := publishedFns[name]
	if !mine && expvar.Get(name) != nil {
		return // foreign registration; leave it alone
	}
	publishedFns[name] = fn
	if !mine {
		expvar.Publish(name, expvar.Func(func() any {
			publishedMu.Lock()
			f := publishedFns[name]
			publishedMu.Unlock()
			return f()
		}))
	}
}

// ServeDebug starts the debug listener on addr (e.g. "localhost:6060";
// ":0" picks a free port — see Addr). The server runs until Close.
func ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	d := &DebugServer{ln: ln, srv: srv}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return d, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener.
func (d *DebugServer) Close() error { return d.srv.Close() }
