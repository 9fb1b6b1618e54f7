package dnsnet

import (
	"context"
	"errors"

	"clientmap/internal/dnswire"
	"clientmap/internal/metrics"
)

// Instrument wraps next so every exchange through it is counted in reg
// under "dnsnet/<name>/…": queries issued, timeouts, other errors,
// unanswered exchanges (a dropped packet in simulation: nil response, nil
// error) and truncated responses. Wrap outermost — outside any fault
// injector — so the counters see what the caller sees, injected faults
// included. Counters are order-independent sums, striped so concurrent
// adds do not share a cache line, so the wrapper is safe and cheap on
// transports shared by concurrent workers; a nil registry discards.
func Instrument(reg *metrics.Registry, name string, next Exchanger) Exchanger {
	if reg == nil {
		return next
	}
	base := "dnsnet/" + name
	return &instrumented{
		next:       next,
		queries:    reg.Counter(base + "/queries"),
		timeouts:   reg.Counter(base + "/timeouts"),
		errs:       reg.Counter(base + "/errors"),
		unanswered: reg.Counter(base + "/unanswered"),
		truncated:  reg.Counter(base + "/truncated"),
	}
}

type instrumented struct {
	next                                           Exchanger
	queries, timeouts, errs, unanswered, truncated *metrics.Counter
}

func (i *instrumented) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	i.queries.Inc()
	resp, err := i.next.Exchange(ctx, server, q)
	switch {
	case errors.Is(err, ErrTimeout):
		i.timeouts.Inc()
	case err != nil:
		i.errs.Inc()
	case resp == nil:
		i.unanswered.Inc()
	case resp.Truncated:
		i.truncated.Inc()
	}
	return resp, err
}
