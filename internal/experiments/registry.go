package experiments

import (
	"fmt"
	"sort"
)

// Runner is one experiment harness.
type Runner func(Opts) []*Table

// Experiment is one registered harness and the paper's claims checked on
// its tables.
type Experiment struct {
	Run Runner
	// Claims checks the qualitative results the tables stand for (DESIGN.md
	// §6); nil where none is pinned yet.
	Claims func([]*Table) []Verdict
}

// Registry maps experiment IDs (paper artifact names) to their harnesses.
var Registry = map[string]Experiment{
	"fig2":  {Run: Fig2},
	"fig3":  {Run: Fig3},
	"fig4":  {Run: Fig4},
	"fig5":  {Run: Fig5},
	"fig8":  {Run: Fig8, Claims: fig8Claims},
	"fig9":  {Run: Fig9},
	"fig10": {Run: Fig10},
	"fig11": {Run: Fig11},
	"fig12": {Run: Fig12},
	"fig13": {Run: Fig13, Claims: fig13Claims},
	"fig14": {Run: Fig14},
	"fig15": {Run: Fig15},
	"fig16": {Run: Fig16},
	"fig17": {Run: Fig17},
	"tab1":  {Run: Table1, Claims: table1Claims},
	"tab2":  {Run: Table2},
	"tab3":  {Run: Table3, Claims: table3Claims},
	// beyond the paper: multi-instance cluster serving (DESIGN.md §7)
	"cluster-routing": {Run: ClusterRouting},
	// beyond the paper: host-memory KV offload under oversubscription
	// (DESIGN.md §9)
	"offload": {Run: Offload},
	// beyond the paper: fault injection and failure recovery (DESIGN.md
	// §13) — swap-recovery vs recompute-recovery goodput under crashes
	"chaos": {Run: Chaos},
	// beyond the paper: prefill/decode disaggregation with compressed
	// cross-instance KV transfer (DESIGN.md §16)
	"disagg": {Run: Disagg},
	// design-choice ablations beyond the paper's headline results
	// (DESIGN.md §6)
	"abl-scan":     {Run: AblationScan},
	"abl-tables":   {Run: AblationTables},
	"abl-window":   {Run: AblationWindow},
	"abl-pagesize": {Run: AblationPageSize},
	"abl-levels":   {Run: AblationThreeLevels},
	"abl-perhead":  {Run: AblationPerHead},
	"abl-devices":  {Run: AblationDevices},
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, o Opts) ([]*Table, error) {
	e, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return e.Run(o), nil
}
