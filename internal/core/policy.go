// Package core implements the paper's primary contribution: the
// granularity- and interference-aware scheduling approach of §IV. It
// consumes offline task profiles (package profile), predicts interference
// between queued workflows (package interference), selects collocation
// groups that maximize the prioritized metric, right-sizes MPS partitions,
// and executes plans on the simulated device (package gpusim) against the
// sequential baseline.
package core

import (
	"fmt"

	"gpushare/internal/interference"
	"gpushare/internal/metrics"
)

// Objective selects the metric the scheduler optimizes (§IV-C).
type Objective int

const (
	// MaximizeThroughput limits collocation cardinality (criterion 4:
	// "if throughput is prioritized, the number of clients is limited to
	// 2") and packs the least-utilizing workflows together first.
	MaximizeThroughput Objective = iota
	// MaximizeEnergyEfficiency uses the maximum number of MPS clients
	// available (criterion 4) to overlap as much work as possible.
	MaximizeEnergyEfficiency
	// MaximizeProduct balances the two via a weighted product metric.
	MaximizeProduct
)

func (o Objective) String() string {
	switch o {
	case MaximizeThroughput:
		return "throughput"
	case MaximizeEnergyEfficiency:
		return "energy-efficiency"
	case MaximizeProduct:
		return "product"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Policy configures the scheduling approach.
type Policy struct {
	// Objective is the prioritized metric.
	Objective Objective
	// Product is the weighting used when Objective is MaximizeProduct.
	Product metrics.Product
	// ThroughputClientCap overrides the client limit under
	// MaximizeThroughput; zero selects the paper's value of 2.
	ThroughputClientCap int
	// ProductClientCap overrides the client limit under MaximizeProduct;
	// zero selects a moderate default of 4 (between the throughput cap
	// and the device maximum, matching Figure 4's product-metric sweet
	// spot).
	ProductClientCap int
	// RightSizePartitions enables MPS partition right-sizing: each
	// collocated client gets an active-thread percentage covering its
	// predicted saturation point (Figure 1's granularity insight)
	// instead of the full device.
	RightSizePartitions bool
	// PartitionHeadroom is the multiplicative margin applied when
	// right-sizing (zero selects 1.2). Partitions are rounded up to 10%
	// steps, the granularity the paper sweeps in Figure 1.
	PartitionHeadroom float64
	// AllowInterferingPairs permits groups that violate the paper's
	// interference rules (used by ablations and the naive baseline);
	// capacity violations are never allowed.
	AllowInterferingPairs bool
	// PairOpposingPower applies the paper's recommendation 3 ("where
	// possible, pair workflows with opposing power profiles"): among
	// rule-compatible candidates, the packer picks the one whose average
	// power differs most from the group's, instead of the next-lowest-
	// utilization one.
	PairOpposingPower bool
}

// Validate checks the policy and resolves defaults.
func (p Policy) Validate() error {
	switch p.Objective {
	case MaximizeThroughput, MaximizeEnergyEfficiency:
	case MaximizeProduct:
		if err := p.Product.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown objective %d", int(p.Objective))
	}
	if p.ThroughputClientCap < 0 {
		return fmt.Errorf("core: ThroughputClientCap must be non-negative")
	}
	if p.ProductClientCap < 0 {
		return fmt.Errorf("core: ProductClientCap must be non-negative")
	}
	if p.PartitionHeadroom < 0 || p.PartitionHeadroom > 3 {
		return fmt.Errorf("core: PartitionHeadroom must be in [0,3], got %g", p.PartitionHeadroom)
	}
	return nil
}

// admits applies criteria 2 and 3 to an O(1) probe outcome: capacity
// violations (OOM) are never acceptable; other interference is tolerated
// only under AllowInterferingPairs. The packer and the online
// dispatcher both decide through it.
func (p *Policy) admits(out *interference.Outcome) bool {
	return out.Rules()&p.rules() == 0
}

// rules is the mask admits checks: every rule, or capacity alone under
// AllowInterferingPairs.
func (p *Policy) rules() interference.RuleMask {
	if p.AllowInterferingPairs {
		return interference.MaskCapacity
	}
	return interference.MaskCompute | interference.MaskBandwidth | interference.MaskCapacity
}

// ClientCap resolves the per-GPU client limit for the policy given the
// device's MPS maximum (criterion 4 of §IV-B).
func (p Policy) ClientCap(deviceMax int) int {
	switch p.Objective {
	case MaximizeThroughput:
		if p.ThroughputClientCap > 0 {
			return min(p.ThroughputClientCap, deviceMax)
		}
		return min(2, deviceMax)
	case MaximizeProduct:
		if p.ProductClientCap > 0 {
			return min(p.ProductClientCap, deviceMax)
		}
		return min(4, deviceMax)
	default: // MaximizeEnergyEfficiency
		return deviceMax
	}
}

// ThroughputPolicy returns the paper's throughput-first configuration.
func ThroughputPolicy() Policy {
	return Policy{Objective: MaximizeThroughput, RightSizePartitions: false}
}

// EnergyPolicy returns the paper's energy-first configuration.
func EnergyPolicy() Policy {
	return Policy{Objective: MaximizeEnergyEfficiency, RightSizePartitions: false}
}

// ProductPolicy returns a product-balanced configuration.
func ProductPolicy(prod metrics.Product) Policy {
	return Policy{Objective: MaximizeProduct, Product: prod}
}
