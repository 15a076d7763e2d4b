// Command autoindexd runs the auto-indexing service over a simulated
// multi-tenant region and reports the service's activity: per-database
// recommendations, implementations, validations and reverts, plus the
// aggregated operational statistics.
//
// After the simulated run it can keep serving: -listen exposes the §2
// REST management API, and -sql-listen exposes a MySQL-style SQL front
// end over the tenant databases. Statements executed by real clients
// are captured into each tenant's Query Store, and a live loop keeps
// advancing virtual time and stepping the control plane so the tuning
// pipeline runs over the captured workload. Both servers drain
// gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	autoindexd -databases 6 -days 8 -seed 42 -auto 0.5 -v
//	autoindexd -databases 2 -days 1 -listen :8080 -sql-listen :3306
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/engine"
	"autoindex/internal/fleet"
	"autoindex/internal/serve"
)

func main() {
	var (
		databases  = flag.Int("databases", 6, "number of tenant databases")
		days       = flag.Int("days", 8, "virtual days to run")
		seed       = flag.Int64("seed", 42, "fleet seed")
		auto       = flag.Float64("auto", 0.5, "fraction of databases with auto-implementation")
		stmtsHr    = flag.Int("stmts", 30, "statements per database per virtual hour")
		verbose    = flag.Bool("v", false, "print per-database action history")
		listen     = flag.String("listen", "", "after the run, serve the §2 REST management API on this address (e.g. :8080)")
		sqlListen  = flag.String("sql-listen", "", "after the run, serve the MySQL-style SQL protocol on this address (e.g. :3306)")
		sqlPass    = flag.String("sql-password", "autoindex", "password for SQL sessions (any username)")
		sqlRate    = flag.Float64("sql-rate", 0, "per-tenant statement rate limit in stmts/sec (0 = unlimited)")
		sqlMaxSess = flag.Int("sql-max-sessions", 128, "maximum concurrent SQL sessions")
		liveStep   = flag.Duration("live-step", 2*time.Second, "wall interval between live ticks (each tick advances one virtual hour and steps the control plane)")
	)
	flag.Parse()

	fl, err := fleet.Build(fleet.Spec{
		Databases:   *databases,
		MixedTiers:  true,
		Seed:        *seed,
		UserIndexes: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "autoindexd:", err)
		os.Exit(1)
	}
	cfg := fleet.DefaultOpsConfig()
	cfg.Days = *days
	cfg.StatementsPerHour = *stmtsHr
	cfg.AutoImplementFraction = *auto

	fmt.Printf("autoindexd: managing %d databases for %d virtual days (seed %d)\n\n",
		*databases, *days, *seed)
	res, err := fl.RunOps(fleet.Spec{Seed: *seed, UserIndexes: true}, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autoindexd:", err)
		os.Exit(1)
	}

	if *verbose {
		for _, tn := range fl.Tenants {
			hist := res.Plane.History(tn.DB.Name())
			active := res.Plane.ListRecommendations(tn.DB.Name())
			if len(hist) == 0 && len(active) == 0 {
				continue
			}
			fmt.Printf("%s (%s):\n", tn.DB.Name(), tn.DB.Tier())
			for _, r := range active {
				fmt.Printf("  [Active]      %s\n", r.Describe())
			}
			for _, r := range hist {
				fmt.Printf("  [%-11s] %s %s", r.State, r.Action, r.Index.Name)
				if r.Validation != nil {
					fmt.Printf(" — %s", r.Validation.Verdict)
				}
				fmt.Println()
			}
		}
		fmt.Println()
	}

	fmt.Println("operational summary (cf. paper §8.1):")
	fmt.Println(" ", res.Stats.String())
	fmt.Printf("  queries >2x faster: %d; databases with >50%% aggregate CPU reduction: %d; steady-state databases: %d\n",
		res.QueriesTwiceFaster, res.DatabasesHalvedCPU, res.SteadyStateDatabases)
	fmt.Println("\ncontrol-plane counters:")
	for _, m := range fl.Metrics.Snapshot(false) {
		if m.Value != nil && *m.Value != 0 && strings.HasPrefix(m.Name, "controlplane.") {
			fmt.Printf("   %s=%d\n", m.Name, *m.Value)
		}
	}
	if inc := res.Plane.StateStore().Incidents(); len(inc) > 0 {
		fmt.Printf("\n%d incidents for on-call review:\n", len(inc))
		for _, i := range inc {
			fmt.Printf("  [%s] %s %s: %s\n", i.At.Format(time.RFC3339), i.Database, i.Kind, i.Message)
		}
	}

	if *listen == "" && *sqlListen == "" {
		return
	}

	lookup := func(name string) (*engine.Database, bool) {
		for _, tn := range fl.Tenants {
			if tn.DB.Name() == name {
				return tn.DB, true
			}
		}
		return nil, false
	}

	var sqlSrv *serve.Server
	if *sqlListen != "" {
		sqlSrv = serve.New(serve.Config{
			Lookup:      lookup,
			Password:    *sqlPass,
			MaxSessions: *sqlMaxSess,
			TenantRate:  *sqlRate,
			Metrics:     fl.Metrics,
		})
		sqlLn, err := net.Listen("tcp", *sqlListen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "autoindexd:", err)
			os.Exit(1)
		}
		go func() {
			if err := sqlSrv.Serve(sqlLn); err != nil {
				fmt.Fprintln(os.Stderr, "autoindexd: sql server:", err)
			}
		}()
		fmt.Printf("\nserving SQL protocol on %s (any user, password %q, databases db000..db%03d)\n",
			sqlLn.Addr(), *sqlPass, *databases-1)
	}

	var httpSrv *http.Server
	if *listen != "" {
		// The management API plus the observability surface: /metrics is
		// the full text exposition (volatile metrics included) of the
		// run's registry; /livestats reports live SQL capture feeding the
		// tuner; /debug/pprof/* is the stock net/http/pprof handler set.
		mux := http.NewServeMux()
		mux.Handle("/", res.Plane.HTTPHandler())
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := fl.Metrics.WriteText(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("GET /livestats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(liveStats(fl, sqlSrv))
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		httpLn, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "autoindexd:", err)
			os.Exit(1)
		}
		httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "autoindexd: http server:", err)
			}
		}()
		fmt.Printf("\nserving management API on %s (GET /databases, /opstats, /metrics, /livestats, /debug/pprof/, ...)\n", httpLn.Addr())
	}

	// Live loop: while SQL clients execute statements in real time, each
	// tick advances the fleet's virtual clocks by one hour and steps the
	// control plane, so analysis cadences and validation windows elapse
	// and the tuner runs over the live-captured workload.
	stop := make(chan struct{})
	loopDone := make(chan struct{})
	if *sqlListen != "" {
		go func() {
			defer close(loopDone)
			//lint:ignore wallclock the live loop paces virtual time against real client traffic
			ticker := time.NewTicker(*liveStep)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					fl.AdvanceLive(time.Hour)
					res.Plane.Step()
				}
			}
		}()
	} else {
		close(loopDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nautoindexd: shutting down")
	close(stop)
	<-loopDone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if sqlSrv != nil {
		if err := sqlSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "autoindexd: sql drain:", err)
		}
	}
	if httpSrv != nil {
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "autoindexd: http drain:", err)
		}
	}
	fmt.Println("autoindexd: shutdown complete")
}

// LiveStats is the /livestats payload: how much live SQL traffic has
// been captured and whether the tuner has consumed it.
type LiveStats struct {
	SessionsActive            int                `json:"sessions_active"`
	Capture                   serve.CaptureStats `json:"capture"`
	AnalysisLivePasses        int64              `json:"analysis_live_passes"`
	LiveDrivenRecommendations int64              `json:"live_driven_recommendations"`
	Databases                 []DBLiveStats      `json:"databases"`
}

// DBLiveStats is one tenant's execution split.
type DBLiveStats struct {
	Name           string `json:"name"`
	Executions     int64  `json:"executions"`
	LiveExecutions int64  `json:"live_executions"`
}

func liveStats(fl *fleet.Fleet, sqlSrv *serve.Server) LiveStats {
	st := LiveStats{
		AnalysisLivePasses:        fl.Metrics.Counter(controlplane.DescAnalysisLiveWorkload).Value(),
		LiveDrivenRecommendations: fl.Metrics.Counter(controlplane.DescRecsLiveDriven).Value(),
	}
	if sqlSrv != nil {
		st.SessionsActive = sqlSrv.ActiveSessions()
		st.Capture = sqlSrv.CaptureStats()
	}
	for _, tn := range fl.Tenants {
		total, live := tn.DB.QueryStore().ExecutionTotals()
		st.Databases = append(st.Databases, DBLiveStats{Name: tn.DB.Name(), Executions: total, LiveExecutions: live})
	}
	return st
}
