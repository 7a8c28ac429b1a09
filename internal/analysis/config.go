package analysis

import "strings"

// Config maps (import path, check) to a Severity. Rules are matched by
// longest path prefix, so a narrow rule for one package overrides a
// broad rule for its tree; checks absent from every matching rule fall
// back to Default, then Off.
type Config struct {
	// Default applies when no rule mentions the check.
	Default map[string]Severity
	// Rules are prefix-matched against the package import path. The
	// module root package matches the "" prefix rule only.
	Rules []Rule
}

// Rule assigns severities to checks for every package whose import path
// equals Prefix or (unless Exact) starts with Prefix + "/". Exact keeps
// the module-root rule from swallowing every package in the module.
type Rule struct {
	Prefix string
	Exact  bool
	Checks map[string]Severity
}

// SeverityFor resolves the severity of check for a package import path.
func (c *Config) SeverityFor(check, importPath string) Severity {
	best := -1
	sev, ok := Severity(0), false
	for _, r := range c.Rules {
		if r.Exact && importPath != r.Prefix {
			continue
		}
		if !r.Exact && !matchPrefix(importPath, r.Prefix) {
			continue
		}
		s, has := r.Checks[check]
		if has && len(r.Prefix) > best {
			best, sev, ok = len(r.Prefix), s, true
		}
	}
	if ok {
		return sev
	}
	if s, has := c.Default[check]; has {
		return s
	}
	return Off
}

func matchPrefix(path, prefix string) bool {
	if prefix == "" {
		return true
	}
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// simPackages are the simulated-time packages: everything inside them
// runs on the nowUs clock, so wall-clock reads, unseeded randomness,
// unordered map iteration and step-path concurrency are determinism
// bugs, not style nits. serving is included even though its Loop pacing
// path legitimately touches the wall clock — those few sites carry
// //diffkv:allow directives so each exemption is visible in the code it
// excuses.
var simPackages = []string{
	"diffkv/internal/core",
	"diffkv/internal/serving",
	"diffkv/internal/cluster",
	"diffkv/internal/disagg",
	"diffkv/internal/faults",
	"diffkv/internal/offload",
	"diffkv/internal/telemetry",
}

// deterministicPackages extends simPackages with packages whose outputs
// are pinned bit-identical by tests (experiment tables, trace/span
// reconstruction, workload sampling, scenario building) — the set where
// map-iteration order already caused a real bug (fig2, PR 2).
var deterministicPackages = append([]string{
	"diffkv", // scenario build + request materialization (exact: not the whole module)
	"diffkv/internal/analysis",
	"diffkv/internal/experiments",
	"diffkv/internal/trace",
	"diffkv/internal/workload",
	"diffkv/internal/kvcache",
	"diffkv/internal/policy",
	"diffkv/internal/baselines",
	"diffkv/internal/quant",
	"diffkv/internal/attention",
	"diffkv/internal/gpusim",
	"diffkv/internal/mathx",
	"diffkv/internal/stats",
	"diffkv/internal/synth",
	"diffkv/internal/report",
	"diffkv/internal/registry",
	"diffkv/internal/faults",
	"diffkv/internal/offload",
	"diffkv/internal/telemetry",
}, simPackages...)

// stepPathPackages are the event-loop step path: code reached from
// Engine.Step / Cluster.Step, which must stay single-goroutine so a
// step is a pure function of (state, nowUs). serving carries the Loop
// goroutine machinery behind allow directives.
var stepPathPackages = []string{
	"diffkv/internal/core",
	"diffkv/internal/serving",
	"diffkv/internal/cluster",
	"diffkv/internal/disagg",
	"diffkv/internal/faults",
	"diffkv/internal/offload",
	"diffkv/internal/telemetry",
	"diffkv/internal/kvcache",
	"diffkv/internal/policy",
}

// DefaultConfig encodes the project's determinism contract:
//
//   - wallclock: error in sim-time packages; off in cmd/, examples/,
//     httpapi (network edge runs on real time by design).
//   - globalrand: error module-wide — even host-side tools must thread
//     an explicit *rand.Rand so reruns reproduce.
//   - maprange: error in deterministic packages.
//   - goroutine: error on the event-loop step path.
//   - timeunits: error in deterministic packages, warn elsewhere (unit
//     mixing in a CLI printf is ugly; in the scheduler it corrupts the
//     clock).
//   - allowaudit: error module-wide — a stale suppression is a lie.
func DefaultConfig() *Config {
	c := &Config{
		Default: map[string]Severity{
			"globalrand":   Error,
			"timeunits":    Warn,
			AllowAuditName: Error,
		},
	}
	for _, p := range simPackages {
		c.addRule(p, "wallclock", Error)
	}
	for _, p := range deterministicPackages {
		c.addRule(p, "maprange", Error)
		c.addRule(p, "timeunits", Error)
	}
	for _, p := range stepPathPackages {
		c.addRule(p, "goroutine", Error)
	}
	c.addRule("diffkv/internal", Deadcode.Name, Error)
	return c
}

// FixtureConfig enables every check at Error severity for any import
// path — the config fixture tests and standalone-directory runs use.
func FixtureConfig() *Config {
	all := map[string]Severity{AllowAuditName: Error}
	for _, a := range Analyzers() {
		all[a.Name] = Error
	}
	return &Config{Default: all}
}

func (c *Config) addRule(prefix, check string, s Severity) {
	// The bare module path is an exact rule: "diffkv" must not match
	// "diffkv/cmd/..." or "diffkv/examples/...".
	exact := !strings.Contains(prefix, "/")
	for i := range c.Rules {
		if c.Rules[i].Prefix == prefix {
			c.Rules[i].Checks[check] = s
			return
		}
	}
	c.Rules = append(c.Rules, Rule{Prefix: prefix, Exact: exact, Checks: map[string]Severity{check: s}})
}
