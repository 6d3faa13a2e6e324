package fleet

// FleetDigest exposes fleetDigest to the external fleet_test package,
// whose operational-dimension profiles it pins.
var FleetDigest = fleetDigest
