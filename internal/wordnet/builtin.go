package wordnet

import "sync"

var (
	defaultOnce sync.Once
	defaultThes *Thesaurus
)

// Default returns the embedded schema-domain thesaurus shared by the suite.
// The returned value is read-only and safe for concurrent use.
func Default() *Thesaurus {
	defaultOnce.Do(func() { defaultThes = buildDefault() })
	return defaultThes
}

// buildDefault constructs the curated lexical graph. Synsets are grouped by
// the dataset domains Valentine fabricates over; hypernym edges give Cupid's
// linguistic matcher a shallow concept hierarchy.
func buildDefault() *Thesaurus {
	t := New()

	// --- Broad concepts (hypernym roots) ---
	entity := t.AddSynset("entity", "thing", "object")
	person := t.AddSynset("person", "individual", "human")
	organization := t.AddSynset("organization", "organisation", "institution", "company", "firm")
	location := t.AddSynset("location", "place", "site")
	identifier := t.AddSynset("identifier", "id", "key", "code")
	quantity := t.AddSynset("quantity", "amount", "number", "count")
	temporal := t.AddSynset("time", "date", "datetime", "timestamp")
	money := t.AddSynset("money", "currency", "cash")
	document := t.AddSynset("document", "record", "entry")
	t.AddHypernym(person, entity)
	t.AddHypernym(organization, entity)
	t.AddHypernym(location, entity)
	t.AddHypernym(document, entity)

	// --- People & customers ---
	customer := t.AddSynset("customer", "client", "patron", "buyer", "purchaser")
	t.AddHypernym(customer, person)
	name := t.AddSynset("name", "title", "label", "designation")
	forename := t.AddSynset("forename", "firstname", "first", "given", "givenname")
	surname := t.AddSynset("surname", "lastname", "last", "family", "familyname")
	t.AddHypernym(forename, name)
	t.AddHypernym(surname, name)
	t.AddSynset("gender", "sex")
	birth := t.AddSynset("birthdate", "birthday", "dob", "born")
	t.AddHypernym(birth, temporal)
	t.AddSynset("age", "years")
	spouse := t.AddSynset("spouse", "partner", "husband", "wife", "consort")
	t.AddHypernym(spouse, person)
	parent := t.AddSynset("parent", "father", "mother", "guardian")
	t.AddHypernym(parent, person)
	child := t.AddSynset("child", "kid", "offspring", "son", "daughter")
	t.AddHypernym(child, person)
	employee := t.AddSynset("employee", "worker", "staff", "personnel")
	t.AddHypernym(employee, person)
	manager := t.AddSynset("manager", "supervisor", "boss", "head", "lead", "chief")
	t.AddHypernym(manager, employee)
	owner := t.AddSynset("owner", "holder", "proprietor")
	t.AddHypernym(owner, person)
	t.AddSynset("citizen", "national", "resident")
	t.AddSynset("marital", "marriage", "married")

	// --- Contact & address ---
	address := t.AddSynset("address", "addr", "residence", "location")
	t.AddHypernym(address, location)
	street := t.AddSynset("street", "st", "road", "rd", "avenue", "ave", "lane")
	t.AddHypernym(street, address)
	city := t.AddSynset("city", "town", "municipality")
	t.AddHypernym(city, location)
	state := t.AddSynset("state", "province", "region")
	t.AddHypernym(state, location)
	country := t.AddSynset("country", "nation", "cntr", "cntry", "land")
	t.AddHypernym(country, location)
	postcode := t.AddSynset("postcode", "postal", "zip", "zipcode", "po", "pcode")
	t.AddHypernym(postcode, identifier)
	phone := t.AddSynset("phone", "telephone", "tel", "mobile", "cell")
	t.AddHypernym(phone, identifier)
	email := t.AddSynset("email", "mail", "e-mail")
	t.AddHypernym(email, identifier)

	// --- Commerce & finance ---
	price := t.AddSynset("price", "cost", "fee", "charge", "rate")
	t.AddHypernym(price, money)
	income := t.AddSynset("income", "salary", "wage", "earnings", "pay")
	t.AddHypernym(income, money)
	balance := t.AddSynset("balance", "total", "sum", "net")
	t.AddHypernym(balance, money)
	credit := t.AddSynset("credit", "rating", "score")
	t.AddHypernym(credit, quantity)
	order := t.AddSynset("order", "purchase", "transaction", "sale")
	t.AddHypernym(order, document)
	product := t.AddSynset("product", "item", "article", "goods")
	t.AddHypernym(product, entity)
	vendor := t.AddSynset("vendor", "supplier", "seller", "merchant")
	t.AddHypernym(vendor, organization)
	account := t.AddSynset("account", "acct")
	t.AddHypernym(account, document)
	tax := t.AddSynset("tax", "levy", "duty")
	t.AddHypernym(tax, money)
	t.AddSynset("quantity", "qty", "units")
	t.AddSynset("discount", "rebate", "reduction")
	t.AddSynset("invoice", "bill", "receipt")

	// --- Chemistry / assay (ChEMBL stand-in) ---
	assay := t.AddSynset("assay", "test", "experiment", "trial")
	t.AddHypernym(assay, document)
	compound := t.AddSynset("compound", "molecule", "substance", "chemical")
	t.AddHypernym(compound, entity)
	target := t.AddSynset("target", "receptor", "protein")
	t.AddHypernym(target, entity)
	organism := t.AddSynset("organism", "species", "taxon")
	t.AddHypernym(organism, entity)
	dose := t.AddSynset("dose", "dosage", "concentration")
	t.AddHypernym(dose, quantity)
	potency := t.AddSynset("potency", "activity", "efficacy")
	t.AddHypernym(potency, quantity)
	t.AddSynset("cell", "cellline", "culture")
	t.AddSynset("tissue", "organ")
	measurement := t.AddSynset("measurement", "measure", "value", "reading", "observation")
	t.AddHypernym(measurement, quantity)
	unit := t.AddSynset("unit", "uom", "units")
	t.AddHypernym(unit, quantity)
	t.AddSynset("description", "desc", "comment", "note", "remark", "text")
	t.AddSynset("type", "kind", "category", "class", "classification")
	t.AddSynset("source", "origin", "provenance")
	t.AddSynset("journal", "publication", "paper")
	t.AddSynset("reference", "ref", "citation")
	t.AddSynset("confidence", "certainty", "reliability")

	// --- Music / WikiData singers ---
	artist := t.AddSynset("artist", "singer", "musician", "performer", "vocalist")
	t.AddHypernym(artist, person)
	song := t.AddSynset("song", "track", "single", "recording")
	t.AddHypernym(song, entity)
	album := t.AddSynset("album", "lp", "release")
	t.AddHypernym(album, entity)
	genre := t.AddSynset("genre", "style", "category")
	t.AddHypernym(genre, entity)
	t.AddSynset("band", "group", "ensemble")
	t.AddSynset("instrument", "guitar", "piano")
	award := t.AddSynset("award", "prize", "honor", "honour", "grammy")
	t.AddHypernym(award, entity)
	t.AddSynset("debut", "start", "beginning")
	t.AddSynset("occupation", "profession", "job", "career", "work")

	// --- Movies / restaurants (Magellan stand-in) ---
	movie := t.AddSynset("movie", "film", "picture", "feature")
	t.AddHypernym(movie, entity)
	director := t.AddSynset("director", "filmmaker")
	t.AddHypernym(director, person)
	actor := t.AddSynset("actor", "actress", "star", "cast")
	t.AddHypernym(actor, person)
	t.AddSynset("runtime", "duration", "length", "minutes")
	t.AddSynset("restaurant", "eatery", "diner", "bistro")
	t.AddSynset("cuisine", "food", "fare")
	review := t.AddSynset("review", "critique", "evaluation")
	t.AddHypernym(review, document)

	// --- Software delivery / SCRUM (ING stand-in) ---
	sprint := t.AddSynset("sprint", "iteration", "cycle")
	t.AddHypernym(sprint, temporal)
	task := t.AddSynset("task", "ticket", "issue", "workitem", "story")
	t.AddHypernym(task, document)
	epic := t.AddSynset("epic", "initiative", "theme")
	t.AddHypernym(epic, document)
	team := t.AddSynset("team", "squad", "crew", "unit")
	t.AddHypernym(team, organization)
	t.AddSynset("status", "state", "phase", "stage")
	t.AddSynset("priority", "severity", "urgency")
	application := t.AddSynset("application", "app", "software", "program", "system")
	t.AddHypernym(application, entity)
	server := t.AddSynset("server", "host", "machine", "node")
	t.AddHypernym(server, entity)
	department := t.AddSynset("department", "dept", "division", "unit")
	t.AddHypernym(department, organization)
	t.AddSynset("version", "release", "revision")
	t.AddSynset("deadline", "due", "duedate")
	t.AddSynset("estimate", "estimation", "forecast")
	t.AddSynset("backlog", "queue", "pipeline")
	t.AddSynset("hardware", "infrastructure", "equipment")
	t.AddSynset("environment", "env", "platform")

	// --- Civic / open data ---
	permit := t.AddSynset("permit", "license", "licence", "authorization")
	t.AddHypernym(permit, document)
	budget := t.AddSynset("budget", "allocation", "funding")
	t.AddHypernym(budget, money)
	agency := t.AddSynset("agency", "bureau", "office", "authority")
	t.AddHypernym(agency, organization)
	population := t.AddSynset("population", "inhabitants", "residents")
	t.AddHypernym(population, quantity)
	t.AddSynset("district", "ward", "zone", "borough")
	t.AddSynset("year", "yr", "annum")
	t.AddSynset("month", "mo")
	t.AddSynset("latitude", "lat")
	t.AddSynset("longitude", "lon", "lng", "long")
	t.AddSynset("area", "surface", "extent")
	t.AddSynset("start", "begin", "open", "from")
	t.AddSynset("end", "finish", "close", "until", "to")
	t.AddSynset("contact", "liaison")

	// silence unused-variable lint for roots that only anchor hypernyms
	_ = []int{identifier, city, state, postcode, phone, email, price, income,
		balance, credit, order, product, vendor, account, tax, assay, compound,
		target, organism, dose, potency, measurement, unit, artist, song, album,
		genre, award, movie, director, actor, review, sprint, task, epic, team,
		application, server, department, permit, budget, agency, population,
		street, owner, manager, spouse, parent, child}
	return t
}
