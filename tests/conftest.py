import pytest


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
