package edmac

// This file is the module's one option-defaulting path. Every options
// struct in the public API (SimOptions, SuiteOptions) and the Client's
// own option resolution normalize through the helpers below against the
// documented constants, so "what does an unset field mean" has exactly
// one answer — pinned by TestEffectiveDefaults.

const (
	// DefaultSimDuration is the simulated seconds of a Client.Simulate
	// or Client.Batch run whose SimOptions leave Duration unset.
	DefaultSimDuration = 1800.0
	// DefaultSuiteDuration is the simulated seconds per suite cell when
	// SuiteOptions leave Duration unset. Suites trade per-cell length
	// for matrix breadth, hence the shorter window.
	DefaultSuiteDuration = 400.0
	// DefaultCacheSize is the capacity (entries) of the serve layer's
	// response cache and of a WithCache client's result cache unless
	// told otherwise.
	DefaultCacheSize = 256
)

// DefaultEnergyBudget is the per-cell energy requirement a suite falls
// back to: the paper's headline 0.06 J per window.
func DefaultEnergyBudget() float64 { return PaperRequirements().EnergyBudget }

// defaultPositive is the one defaulting rule: a positive value stands,
// anything else (zero value, nonsense negatives) means "use the
// default". Fields where zero is meaningful — SimOptions.Seed,
// SuiteOptions.MaxDelay's depth-scaling convention — are deliberately
// not routed through it.
func defaultPositive(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

// withDefaults fills unset simulation options. Note that Seed is
// deliberately not defaulted: 0 is a valid seed (see the
// SimOptions.Seed convention).
func (o SimOptions) withDefaults() SimOptions {
	o.Duration = defaultPositive(o.Duration, DefaultSimDuration)
	return o
}

// withDefaults fills unset suite options. Seed keeps the SimOptions
// convention (0 is a real seed); MaxDelay 0 means "scale with each
// scenario's depth" and Workers < 1 means "one per CPU", so neither is
// defaulted here.
func (o SuiteOptions) withDefaults() SuiteOptions {
	o.Duration = defaultPositive(o.Duration, DefaultSuiteDuration)
	o.EnergyBudget = defaultPositive(o.EnergyBudget, DefaultEnergyBudget())
	return o
}
