from .command import run

run()
