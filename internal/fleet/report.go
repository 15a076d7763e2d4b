package fleet

import (
	"fmt"
	"strings"
)

// Report renders the §8.1 operational-statistics block exactly as the
// fleetsim binary prints it. Living here (rather than in the command) it
// doubles as the determinism witness: the test suite asserts the report
// is byte-identical across worker counts for the same seed.
func (r *OpsResult) Report() string {
	s := r.Stats
	var b strings.Builder
	b.WriteString("operational statistics (cf. §8.1):\n")
	fmt.Fprintf(&b, "  databases managed:                 %d\n", s.Databases)
	fmt.Fprintf(&b, "  create recommendations:            %d\n", s.CreateRecommended)
	fmt.Fprintf(&b, "  drop recommendations:               %d (paper: drops outnumber creates ~14:1 on a mature fleet)\n", s.DropRecommended)
	fmt.Fprintf(&b, "  indexes auto-created / dropped:    %d / %d\n", s.CreatesImplemented, s.DropsImplemented)
	fmt.Fprintf(&b, "  validations / reverts:             %d / %d (%.1f%%)\n", s.Validations, s.Reverts, s.RevertRate*100)
	fmt.Fprintf(&b, "  queries >2x cheaper:               %d\n", r.QueriesTwiceFaster)
	fmt.Fprintf(&b, "  databases with >50%% CPU reduction: %d\n", r.DatabasesHalvedCPU)
	fmt.Fprintf(&b, "  steady-state databases:            %d\n", r.SteadyStateDatabases)
	fmt.Fprintf(&b, "  incidents:                         %d\n", s.Incidents)
	return b.String()
}

// RevertReport renders the §8.1 revert-analysis block (the fleetsim
// "reverts" experiment output).
func (r *OpsResult) RevertReport() string {
	s := r.Stats
	var b strings.Builder
	b.WriteString("revert analysis (paper: ~11% of automated actions reverted; MI reverts skew\n")
	b.WriteString("to writes becoming more expensive; SELECT regressions implicate optimizer error):\n")
	fmt.Fprintf(&b, "  implemented actions:        %d\n", s.CreatesImplemented+s.DropsImplemented)
	fmt.Fprintf(&b, "  reverts:                    %d (%.1f%%)\n", s.Reverts, s.RevertRate*100)
	fmt.Fprintf(&b, "  write-regression reverts:   %d (of which MI-sourced: %d)\n",
		s.WriteRegressionReverts, s.WriteRegressionRevertsMI)
	fmt.Fprintf(&b, "  SELECT-regression reverts:  %d\n", s.SelectRegressionReverts)
	return b.String()
}
