// Package urban defines the urban functional region vocabulary shared by
// the synthetic-city generator, the cluster labeller and the analysis
// stages: the five region kinds of the paper (resident, transport, office,
// entertainment, comprehensive) and their reported tower shares.
package urban

import "fmt"

// Region identifies one of the five urban functional regions of the paper
// (Table 1). The order matches the paper's cluster indices 1–5.
type Region int

// The five functional regions.
const (
	Resident Region = iota
	Transport
	Office
	Entertainment
	Comprehensive
)

// Regions lists all regions in canonical order.
var Regions = []Region{Resident, Transport, Office, Entertainment, Comprehensive}

// PrimaryRegions lists the four single-function regions that act as the
// primary components of the frequency-domain decomposition (Section 5.3 of
// the paper).
var PrimaryRegions = []Region{Resident, Transport, Office, Entertainment}

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case Resident:
		return "resident"
	case Transport:
		return "transport"
	case Office:
		return "office"
	case Entertainment:
		return "entertainment"
	case Comprehensive:
		return "comprehensive"
	default:
		return fmt.Sprintf("region(%d)", int(r))
	}
}

// DefaultShares returns the fraction of towers per region reported in
// Table 1 of the paper.
func DefaultShares() map[Region]float64 {
	return map[Region]float64{
		Resident:      0.1755,
		Transport:     0.0258,
		Office:        0.4572,
		Entertainment: 0.0935,
		Comprehensive: 0.2481,
	}
}
