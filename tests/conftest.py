from hypothesis import settings

# Property tests draw the same examples on every run, and no example fails on
# its running time, which varies on a loaded machine.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
