package worldgen

import "govdns/internal/dnsname"

// Country describes one UN member state in the synthetic world.
type Country struct {
	// Code is the ISO 3166-1 alpha-2 code, lowercase. It doubles as the
	// ccTLD label.
	Code string
	// Name is the short English name.
	Name string
	// SubRegion is the UN M49 sub-region, used to group countries in
	// Tables II and III exactly as the paper does.
	SubRegion string
	// Suffix is the government suffix seeded from the national portal
	// (the paper's d_gov), e.g. "gov.cn".
	Suffix dnsname.Name
	// Weight is the country's domain count in the 2020 PDNS snapshot at
	// scale 1.0. Top-10 weights follow the paper; the rest are tiered.
	Weight int
	// ProfileName selects the deployment profile preset ("" = tier
	// default chosen by weight).
	ProfileName string
}

// Tier weights (PDNS-2020 domain counts at scale 1.0).
const (
	weightLarge = 1400
	weightMid   = 600
	weightSmall = 280
	weightTiny  = 120
	weightMicro = 30
)

// c builds a country entry with a conventional gov.<cc> suffix.
func c(code, name, subRegion string, weight int, profile string) Country {
	return Country{
		Code: code, Name: name, SubRegion: subRegion,
		Suffix: dnsname.MustParse("gov." + code), Weight: weight, ProfileName: profile,
	}
}

// cs builds a country entry with an explicit government suffix.
func cs(code, name, subRegion, suffix string, weight int, profile string) Country {
	return Country{
		Code: code, Name: name, SubRegion: subRegion,
		Suffix: dnsname.MustParse(suffix), Weight: weight, ProfileName: profile,
	}
}

// UN M49 sub-region names.
const (
	srNorthernAfrica   = "Northern Africa"
	srEasternAfrica    = "Eastern Africa"
	srMiddleAfrica     = "Middle Africa"
	srSouthernAfrica   = "Southern Africa"
	srWesternAfrica    = "Western Africa"
	srCaribbean        = "Caribbean"
	srCentralAmerica   = "Central America"
	srSouthAmerica     = "South America"
	srNorthernAmerica  = "Northern America"
	srCentralAsia      = "Central Asia"
	srEasternAsia      = "Eastern Asia"
	srSouthEasternAsia = "South-eastern Asia"
	srSouthernAsia     = "Southern Asia"
	srWesternAsia      = "Western Asia"
	srEasternEurope    = "Eastern Europe"
	srNorthernEurope   = "Northern Europe"
	srSouthernEurope   = "Southern Europe"
	srWesternEurope    = "Western Europe"
	srAustraliaNZ      = "Australia and New Zealand"
	srMelanesia        = "Melanesia"
	srMicronesia       = "Micronesia"
	srPolynesia        = "Polynesia"
)

// Countries returns the 193 UN member states. The ten countries with the
// most PDNS records carry the paper's observed magnitudes and dedicated
// profiles; the others use tier weights and profile defaults.
func Countries() []Country {
	return []Country{
		// --- Top 10 by PDNS records (paper Table I order) ---
		c("cn", "China", srEasternAsia, 27000, "china"),
		cs("th", "Thailand", srSouthEasternAsia, "go.th", 18000, "thailand"),
		c("br", "Brazil", srSouthAmerica, 15000, "brazil"),
		cs("mx", "Mexico", srCentralAmerica, "gob.mx", 11000, "mexico"),
		c("uk", "United Kingdom", srNorthernEurope, 9500, "uk"),
		cs("tr", "Turkey", srWesternAsia, "gov.tr", 9000, "turkey"),
		c("in", "India", srSouthernAsia, 9000, "india"),
		c("au", "Australia", srAustraliaNZ, 7500, "australia"),
		c("ua", "Ukraine", srEasternEurope, 7000, "ukraine"),
		cs("ar", "Argentina", srSouthAmerica, "gob.ar", 5600, "argentina"),

		// --- Northern Africa ---
		c("dz", "Algeria", srNorthernAfrica, weightSmall, ""),
		c("eg", "Egypt", srNorthernAfrica, weightMid, ""),
		c("ly", "Libya", srNorthernAfrica, weightTiny, ""),
		c("ma", "Morocco", srNorthernAfrica, weightMid, ""),
		c("sd", "Sudan", srNorthernAfrica, weightTiny, ""),
		c("tn", "Tunisia", srNorthernAfrica, weightSmall, ""),

		// --- Eastern Africa ---
		c("bi", "Burundi", srEasternAfrica, weightMicro, ""),
		c("km", "Comoros", srEasternAfrica, weightMicro, ""),
		c("dj", "Djibouti", srEasternAfrica, weightMicro, ""),
		c("er", "Eritrea", srEasternAfrica, weightMicro, ""),
		c("et", "Ethiopia", srEasternAfrica, weightTiny, ""),
		c("ke", "Kenya", srEasternAfrica, weightMid, ""),
		c("mg", "Madagascar", srEasternAfrica, weightTiny, ""),
		c("mw", "Malawi", srEasternAfrica, weightTiny, ""),
		c("mu", "Mauritius", srEasternAfrica, weightSmall, ""),
		c("mz", "Mozambique", srEasternAfrica, weightTiny, ""),
		c("rw", "Rwanda", srEasternAfrica, weightSmall, ""),
		c("sc", "Seychelles", srEasternAfrica, weightMicro, ""),
		c("so", "Somalia", srEasternAfrica, weightMicro, ""),
		c("ss", "South Sudan", srEasternAfrica, weightMicro, ""),
		c("tz", "Tanzania", srEasternAfrica, weightSmall, ""),
		c("ug", "Uganda", srEasternAfrica, weightSmall, ""),
		c("zm", "Zambia", srEasternAfrica, weightTiny, ""),
		c("zw", "Zimbabwe", srEasternAfrica, weightTiny, ""),

		// --- Middle Africa ---
		c("ao", "Angola", srMiddleAfrica, weightTiny, ""),
		c("cm", "Cameroon", srMiddleAfrica, weightTiny, ""),
		c("cf", "Central African Republic", srMiddleAfrica, weightMicro, ""),
		c("td", "Chad", srMiddleAfrica, weightMicro, ""),
		c("cg", "Congo", srMiddleAfrica, weightMicro, ""),
		c("cd", "DR Congo", srMiddleAfrica, weightMicro, ""),
		c("gq", "Equatorial Guinea", srMiddleAfrica, weightMicro, ""),
		c("ga", "Gabon", srMiddleAfrica, weightMicro, ""),
		c("st", "Sao Tome and Principe", srMiddleAfrica, weightMicro, ""),

		// --- Southern Africa ---
		c("bw", "Botswana", srSouthernAfrica, weightTiny, ""),
		c("sz", "Eswatini", srSouthernAfrica, weightMicro, ""),
		c("ls", "Lesotho", srSouthernAfrica, weightMicro, ""),
		c("na", "Namibia", srSouthernAfrica, weightTiny, ""),
		cs("za", "South Africa", srSouthernAfrica, "gov.za", weightLarge, ""),

		// --- Western Africa ---
		c("bj", "Benin", srWesternAfrica, weightMicro, ""),
		c("bf", "Burkina Faso", srWesternAfrica, weightMicro, "sparse"),
		c("cv", "Cabo Verde", srWesternAfrica, weightMicro, ""),
		c("ci", "Cote d'Ivoire", srWesternAfrica, weightTiny, ""),
		c("gm", "Gambia", srWesternAfrica, weightMicro, ""),
		c("gh", "Ghana", srWesternAfrica, weightSmall, ""),
		c("gn", "Guinea", srWesternAfrica, weightMicro, ""),
		c("gw", "Guinea-Bissau", srWesternAfrica, weightMicro, ""),
		c("lr", "Liberia", srWesternAfrica, weightMicro, ""),
		c("ml", "Mali", srWesternAfrica, weightMicro, ""),
		c("mr", "Mauritania", srWesternAfrica, weightMicro, ""),
		c("ne", "Niger", srWesternAfrica, weightMicro, ""),
		c("ng", "Nigeria", srWesternAfrica, weightMid, ""),
		cs("sn", "Senegal", srWesternAfrica, "gouv.sn", weightTiny, ""),
		c("sl", "Sierra Leone", srWesternAfrica, weightMicro, ""),
		c("tg", "Togo", srWesternAfrica, weightMicro, ""),

		// --- Caribbean ---
		c("ag", "Antigua and Barbuda", srCaribbean, weightMicro, ""),
		c("bs", "Bahamas", srCaribbean, weightTiny, ""),
		c("bb", "Barbados", srCaribbean, weightTiny, ""),
		c("cu", "Cuba", srCaribbean, weightSmall, ""),
		c("dm", "Dominica", srCaribbean, weightMicro, ""),
		cs("do", "Dominican Republic", srCaribbean, "gob.do", weightSmall, ""),
		c("gd", "Grenada", srCaribbean, weightMicro, ""),
		c("ht", "Haiti", srCaribbean, weightMicro, ""),
		cs("jm", "Jamaica", srCaribbean, "jis.gov.jm", weightTiny, ""),
		c("kn", "Saint Kitts and Nevis", srCaribbean, weightMicro, ""),
		c("lc", "Saint Lucia", srCaribbean, weightMicro, ""),
		c("vc", "Saint Vincent and the Grenadines", srCaribbean, weightMicro, ""),
		c("tt", "Trinidad and Tobago", srCaribbean, weightTiny, ""),

		// --- Central America ---
		c("bz", "Belize", srCentralAmerica, weightMicro, ""),
		c("cr", "Costa Rica", srCentralAmerica, weightSmall, ""),
		cs("sv", "El Salvador", srCentralAmerica, "gob.sv", weightSmall, ""),
		cs("gt", "Guatemala", srCentralAmerica, "gob.gt", weightSmall, ""),
		c("hn", "Honduras", srCentralAmerica, weightTiny, ""),
		c("ni", "Nicaragua", srCentralAmerica, weightTiny, ""),
		cs("pa", "Panama", srCentralAmerica, "gob.pa", weightSmall, ""),

		// --- South America ---
		cs("bo", "Bolivia", srSouthAmerica, "gob.bo", weightMicro, "sparse"),
		cs("cl", "Chile", srSouthAmerica, "gob.cl", weightLarge, ""),
		c("co", "Colombia", srSouthAmerica, weightLarge, ""),
		cs("ec", "Ecuador", srSouthAmerica, "gob.ec", weightMid, ""),
		c("gy", "Guyana", srSouthAmerica, weightMicro, ""),
		c("py", "Paraguay", srSouthAmerica, weightSmall, ""),
		cs("pe", "Peru", srSouthAmerica, "gob.pe", weightLarge, ""),
		c("sr", "Suriname", srSouthAmerica, weightMicro, ""),
		c("uy", "Uruguay", srSouthAmerica, weightSmall, ""),
		cs("ve", "Venezuela", srSouthAmerica, "gob.ve", weightMid, ""),

		// --- Northern America ---
		cs("ca", "Canada", srNorthernAmerica, "gc.ca", weightMid, ""),
		cs("us", "United States", srNorthernAmerica, "gov", weightMid, ""),

		// --- Central Asia ---
		c("kz", "Kazakhstan", srCentralAsia, weightMid, ""),
		c("kg", "Kyrgyzstan", srCentralAsia, weightSmall, "stale-heavy"),
		c("tj", "Tajikistan", srCentralAsia, weightTiny, ""),
		c("tm", "Turkmenistan", srCentralAsia, weightMicro, ""),
		c("uz", "Uzbekistan", srCentralAsia, weightSmall, ""),

		// --- Eastern Asia ---
		c("jp", "Japan", srEasternAsia, weightLarge, ""),
		c("kp", "North Korea", srEasternAsia, weightMicro, ""),
		cs("kr", "South Korea", srEasternAsia, "go.kr", weightLarge, ""),
		c("mn", "Mongolia", srEasternAsia, weightTiny, ""),

		// --- South-eastern Asia ---
		c("bn", "Brunei", srSouthEasternAsia, weightTiny, ""),
		c("kh", "Cambodia", srSouthEasternAsia, weightTiny, ""),
		cs("id", "Indonesia", srSouthEasternAsia, "go.id", weightLarge, "stale-heavy"),
		c("la", "Laos", srSouthEasternAsia, weightMicro, ""),
		c("my", "Malaysia", srSouthEasternAsia, weightLarge, ""),
		c("mm", "Myanmar", srSouthEasternAsia, weightSmall, ""),
		cs("ph", "Philippines", srSouthEasternAsia, "gov.ph", weightLarge, ""),
		c("sg", "Singapore", srSouthEasternAsia, weightSmall, ""),
		c("tl", "Timor-Leste", srSouthEasternAsia, weightMicro, ""),
		c("vn", "Vietnam", srSouthEasternAsia, weightLarge, ""),

		// --- Southern Asia ---
		c("af", "Afghanistan", srSouthernAsia, weightTiny, ""),
		c("bd", "Bangladesh", srSouthernAsia, weightMid, ""),
		c("bt", "Bhutan", srSouthernAsia, weightMicro, ""),
		c("ir", "Iran", srSouthernAsia, weightMid, ""),
		c("mv", "Maldives", srSouthernAsia, weightMicro, ""),
		c("np", "Nepal", srSouthernAsia, weightSmall, ""),
		c("pk", "Pakistan", srSouthernAsia, weightMid, ""),
		c("lk", "Sri Lanka", srSouthernAsia, weightSmall, ""),

		// --- Western Asia ---
		c("am", "Armenia", srWesternAsia, weightTiny, ""),
		c("az", "Azerbaijan", srWesternAsia, weightSmall, ""),
		c("bh", "Bahrain", srWesternAsia, weightTiny, ""),
		c("cy", "Cyprus", srWesternAsia, weightTiny, ""),
		c("ge", "Georgia", srWesternAsia, weightSmall, ""),
		c("iq", "Iraq", srWesternAsia, weightTiny, ""),
		c("il", "Israel", srWesternAsia, weightSmall, ""),
		c("jo", "Jordan", srWesternAsia, weightSmall, ""),
		c("kw", "Kuwait", srWesternAsia, weightTiny, ""),
		c("lb", "Lebanon", srWesternAsia, weightTiny, ""),
		c("om", "Oman", srWesternAsia, weightTiny, ""),
		c("qa", "Qatar", srWesternAsia, weightTiny, ""),
		c("sa", "Saudi Arabia", srWesternAsia, weightMid, ""),
		c("sy", "Syria", srWesternAsia, weightTiny, ""),
		c("ae", "United Arab Emirates", srWesternAsia, weightMicro, "sparse"),
		c("ye", "Yemen", srWesternAsia, weightMicro, ""),

		// --- Eastern Europe ---
		c("by", "Belarus", srEasternEurope, weightSmall, ""),
		cs("bg", "Bulgaria", srEasternEurope, "government.bg", weightMicro, "sparse"),
		c("cz", "Czechia", srEasternEurope, weightSmall, ""),
		c("hu", "Hungary", srEasternEurope, weightSmall, ""),
		c("md", "Moldova", srEasternEurope, weightSmall, ""),
		c("pl", "Poland", srEasternEurope, weightLarge, ""),
		c("ro", "Romania", srEasternEurope, weightMid, ""),
		c("ru", "Russia", srEasternEurope, weightLarge, ""),
		c("sk", "Slovakia", srEasternEurope, weightSmall, ""),

		// --- Northern Europe ---
		c("dk", "Denmark", srNorthernEurope, weightSmall, ""),
		c("ee", "Estonia", srNorthernEurope, weightSmall, ""),
		c("fi", "Finland", srNorthernEurope, weightSmall, ""),
		c("is", "Iceland", srNorthernEurope, weightTiny, ""),
		c("ie", "Ireland", srNorthernEurope, weightSmall, ""),
		c("lv", "Latvia", srNorthernEurope, weightSmall, ""),
		c("lt", "Lithuania", srNorthernEurope, weightSmall, ""),
		cs("no", "Norway", srNorthernEurope, "regjeringen.no", weightTiny, ""),
		c("se", "Sweden", srNorthernEurope, weightSmall, ""),

		// --- Southern Europe ---
		c("al", "Albania", srSouthernEurope, weightTiny, ""),
		c("ad", "Andorra", srSouthernEurope, weightMicro, ""),
		c("ba", "Bosnia and Herzegovina", srSouthernEurope, weightTiny, ""),
		c("hr", "Croatia", srSouthernEurope, weightSmall, ""),
		c("gr", "Greece", srSouthernEurope, weightMid, ""),
		c("it", "Italy", srSouthernEurope, weightLarge, ""),
		c("mt", "Malta", srSouthernEurope, weightTiny, ""),
		c("me", "Montenegro", srSouthernEurope, weightTiny, ""),
		c("mk", "North Macedonia", srSouthernEurope, weightTiny, ""),
		c("pt", "Portugal", srSouthernEurope, weightMid, ""),
		c("sm", "San Marino", srSouthernEurope, weightMicro, ""),
		c("rs", "Serbia", srSouthernEurope, weightSmall, ""),
		c("si", "Slovenia", srSouthernEurope, weightSmall, ""),
		cs("es", "Spain", srSouthernEurope, "gob.es", weightLarge, ""),

		// --- Western Europe ---
		c("at", "Austria", srWesternEurope, weightSmall, ""),
		c("be", "Belgium", srWesternEurope, weightSmall, ""),
		cs("fr", "France", srWesternEurope, "gouv.fr", weightLarge, ""),
		c("de", "Germany", srWesternEurope, weightMid, ""),
		c("li", "Liechtenstein", srWesternEurope, weightMicro, ""),
		c("lu", "Luxembourg", srWesternEurope, weightTiny, ""),
		c("mc", "Monaco", srWesternEurope, weightMicro, ""),
		c("nl", "Netherlands", srWesternEurope, weightMid, ""),
		c("ch", "Switzerland", srWesternEurope, weightMid, ""),

		// --- Australia and New Zealand ---
		c("nz", "New Zealand", srAustraliaNZ, weightMid, ""),

		// --- Melanesia ---
		c("fj", "Fiji", srMelanesia, weightTiny, ""),
		c("pg", "Papua New Guinea", srMelanesia, weightMicro, ""),
		c("sb", "Solomon Islands", srMelanesia, weightMicro, ""),
		c("vu", "Vanuatu", srMelanesia, weightMicro, ""),

		// --- Micronesia ---
		c("fm", "Micronesia", srMicronesia, weightMicro, ""),
		c("ki", "Kiribati", srMicronesia, weightMicro, ""),
		c("mh", "Marshall Islands", srMicronesia, weightMicro, ""),
		c("nr", "Nauru", srMicronesia, weightMicro, ""),
		c("pw", "Palau", srMicronesia, weightMicro, ""),

		// --- Polynesia ---
		c("ws", "Samoa", srPolynesia, weightMicro, ""),
		c("to", "Tonga", srPolynesia, weightMicro, ""),
		c("tv", "Tuvalu", srPolynesia, weightMicro, ""),
	}
}

// SuffixSet returns the government suffixes of all countries, the set the
// paper verified against ccTLD registration policies.
func SuffixSet(countries []Country) *dnsname.SuffixSet {
	s := dnsname.NewSuffixSet()
	for _, country := range countries {
		s.Add(country.Suffix)
	}
	return s
}

// TopByWeight returns the n countries with the largest Weight, in
// descending order. The paper treats the top 10 as their own sub-regions.
func TopByWeight(countries []Country, n int) []Country {
	sorted := append([]Country(nil), countries...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Weight > sorted[j-1].Weight; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}
