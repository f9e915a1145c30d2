"""Decision services: policy-guarded handlers over deployed tables."""
