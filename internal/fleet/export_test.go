package fleet

// ScrapeAll runs one scrape of every machine, as Tick does every
// ScrapePeriod ticks under PolicyTelemetry.
func (c *Cluster) ScrapeAll() { c.scrapeAll() }

// Scraped returns machine k's view as last scraped and the tick of its last
// successful scrape (-1: never).
func (c *Cluster) Scraped(k int) (TelView, int) { return c.tel[k].view, c.tel[k].lastTick }
