package datagen

import (
	"fmt"
	"strconv"

	"valentine/internal/table"
)

// Churn generates one small mixed-type table for ingest traffic: the
// benchmark's serving workloads and the WAL's restart fixtures upsert
// these against a live catalog. Values draw from the same pools as the fabrication
// sources, so churn tables overlap the lake's columns the way a real feed
// of related tables would, instead of being disjoint junk. Deterministic in (i, Seed):
// the same index and seed always yield the same table.
func Churn(i int, opts Options) *table.Table {
	opts.defaults()
	g := newGen(opts.Seed + 0x5eed + int64(i)*2654435761)
	n := opts.Rows
	t := table.New(fmt.Sprintf("churn_%04d", i))
	t.AddColumn("feed_id", column(n, func(j int) string {
		return "F" + strconv.Itoa(i) + "-" + strconv.Itoa(10000+j)
	}))
	t.AddColumn("contact_name", column(n, func(int) string { return g.fullName() }))
	t.AddColumn("city", column(n, func(int) string { return g.pick(cityNames) }))
	t.AddColumn("state", column(n, func(int) string { return g.pick(stateNames) }))
	t.AddColumn("country", column(n, func(int) string { return g.pick(countryNames) }))
	t.AddColumn("amount", column(n, func(int) string { return g.normalInt(50000, 20000, 100) }))
	t.AddColumn("event_date", column(n, func(int) string { return g.date(2015, 2024) }))
	t.AddColumn("batch_hash", column(n, func(int) string { return g.hexHash(10) }))
	return t
}
