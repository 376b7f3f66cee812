"""One module per CLI command: its argument rows (`ARGUMENTS`) and its handler
(`handle`). `gpfq.cli` imports only the module of the command a run names.

A command module reaches the layers, and the rows and checks commands share,
through `gpfq.cli`'s names (`from ..cli import density, _Q`), never by
importing a layer itself, so whatever wraps `gpfq.cli`'s names sees every
call a handler makes.
"""
