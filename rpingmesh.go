// Package rpingmesh is the root of the R-Pingmesh reproduction: a
// service-aware RoCE network monitoring and diagnostic system based on
// end-to-end active probing (Liu et al., SIGCOMM 2024), together with the
// simulated RoCE substrate it runs on.
//
// The system lives in the internal packages: a deployment is a
// core.Cluster (topology, software RNICs, per-host Agents, a Controller
// and an Analyzer), faults come from faultgen, workloads from service,
// and the paper's tables and figures from the experiments registry
// (`go run ./cmd/rpmesh run <id>`). Programs that use them, such as the
// examples/ directory, live inside this module. This package holds one
// function, NewConsole, which fronts a simulated cluster with the
// ops-console HTTP server; the root tests exercise the whole stack
// through the internal packages.
package rpingmesh

import (
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/core"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/watchdog"
)

// NewConsole builds (without starting) the ops-console HTTP server over
// a cluster: incidents from Cluster.Alerts, window reports from the
// Analyzer, historical series from Cluster.TSDB, ingest self-metrics
// from Cluster.Ingest. A non-nil watchdog wires POST /api/diagnose/{host}
// to its §7.5 decision tree; with w == nil that endpoint answers 501.
func NewConsole(c *core.Cluster, w *watchdog.Watchdog, cfg api.Config) *api.Server {
	b := api.Backend{Windows: c.Analyzer, TSDB: c.TSDB, Pipeline: c.Ingest, Alerts: c.Alerts}
	if w != nil {
		b.Diagnose = func(host string) (any, error) {
			hid := topo.HostID(host)
			if _, ok := c.Topo.Hosts[hid]; !ok {
				return nil, api.ErrUnknownHost
			}
			type diagnosisJSON struct {
				Problem  analyzer.Problem `json:"problem"`
				Cause    string           `json:"cause"`
				Evidence string           `json:"evidence"`
				Summary  string           `json:"summary"`
			}
			ds := w.DiagnoseHost(hid)
			out := make([]diagnosisJSON, len(ds))
			for i, d := range ds {
				out[i] = diagnosisJSON{
					Problem: d.Problem, Cause: d.Cause.String(),
					Evidence: d.Evidence, Summary: d.String(),
				}
			}
			return out, nil
		}
	}
	return api.New(b, cfg)
}
