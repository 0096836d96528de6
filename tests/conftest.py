import pytest
from hypothesis import settings

# Each failing Hypothesis draw prints its @reproduce_failure blob, which pins
# it as an @example without a search of the .hypothesis database. Every
# other setting is the active profile's, the "ci" one where CI is set.
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")


@pytest.fixture
def missed_guesses(monkeypatch):
    """Wrap a module's bracket search for one test.

    Call the fixture with a module that imports ``first_passing``; the list it
    returns gets one flag per search, True when the breakpoint sweep's guess
    was not the bracket the exact search settled on.
    """

    def watch(module):
        misses = []
        search = module.first_passing

        def spy(n, guess, passes):
            found = search(n, guess, passes)
            misses.append(found != guess)
            return found

        monkeypatch.setattr(module, "first_passing", spy)
        return misses

    return watch


@pytest.fixture
def cold_checks(monkeypatch):
    """Empty the clearing's memo of checked inputs for one test; the
    returned function empties it again."""
    from microgrid_auction import clearing

    def clear():
        monkeypatch.setattr(clearing, "_checked", (None, 0.0, None, None))

    clear()
    return clear


@pytest.fixture
def checked_names(monkeypatch):
    """The name of every list clearing passes to check_nonnegative or
    check_positive, in call order."""
    from microgrid_auction import clearing

    names = []
    for rule in ("check_nonnegative", "check_positive"):

        def spy(name, *values, check=getattr(clearing, rule)):
            names.append(name)
            check(name, *values)

        monkeypatch.setattr(clearing, rule, spy)
    return names
