package fleet

// FleetDigest exposes fleetDigest to the external fleet_test package,
// whose operational-dimension profiles it pins.
var FleetDigest = fleetDigest

// AllDisks exposes allDisks to the external fleet_test package, whose
// trial tests compare whole populations.
var AllDisks = allDisks
